"""The on-disk calibration profile: versioned, schema-validated JSON.

A profile is the unit of exchange between the fitter, the CI
``calibration-smoke`` job, and a running engine: one JSON document
holding a complete :class:`~repro.analysis.cost_model.KernelCosts`
table (in *host nanoseconds* — ``clock_ns = 1.0`` so "clocks" are ns),
the refit ``m(n)``/``S₁(n)`` cubic-in-``log n`` tuning coefficients,
the host fingerprint the samples came from, and enough fit metadata
(sample counts, RMS residuals) to judge whether the profile should be
trusted.

Validation is strict and runs on every load: a profile with a
non-positive slope, a NaN, a wrong schema version, or a missing field
raises :class:`ProfileError` instead of silently mis-routing every
request that follows.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Any

from ..analysis.cost_model import KernelCosts

__all__ = [
    "SCHEMA_VERSION",
    "CalibrationProfile",
    "ProfileError",
    "host_fingerprint",
    "load_profile",
]

#: Bump on any incompatible change to the JSON layout.
SCHEMA_VERSION = 1

#: Every cost field must be finite and >= 0; these slopes must be > 0
#: (a zero or negative per-element cost routes everything to that
#: kernel — the "absurd coefficient" class the CI check job rejects).
_POSITIVE_SLOPES = (
    "serial_per_elem",
    "initial_rank_per_elem",
    "final_rank_per_elem",
    "initial_pack_per_elem",
    "final_pack_per_elem",
    "wyllie_round_per_elem",
)

_COST_FIELDS = tuple(f.name for f in dataclasses.fields(KernelCosts))

#: Sample kinds the fitter knows how to ingest.
FIT_KINDS = ("serial", "wyllie", "sublist")


class ProfileError(ValueError):
    """A calibration profile failed schema or sanity validation."""


def host_fingerprint() -> dict[str, Any]:
    """Identify the machine a profile was fitted on.

    Routing constants are meaningless across hosts (that is the whole
    point of this package), so every profile records where its samples
    were measured and ``calibrate check`` can warn on a mismatch.
    """
    import numpy

    uname = platform.uname()
    return {
        "platform": sys.platform,
        "machine": uname.machine,
        "system": uname.system,
        "release": uname.release,
        "node": uname.node,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


@dataclass(frozen=True)
class CalibrationProfile:
    """One fitted calibration: cost table + tuning fits + provenance.

    Attributes
    ----------
    costs:
        Full kernel cost table in host nanoseconds (``clock_ns == 1.0``
        for fitted profiles, so predicted "clocks" read directly as
        ns).
    m_coeffs / s1_coeffs:
        Cubic-in-``ln n`` coefficients (highest power first) for the
        tuned sublist count and first pack point, refit against
        ``costs`` the same way the paper fits its Section 4.4 cubics —
        or ``None`` when the fit skipped the tuning stage.
    samples:
        Per-kind ingested sample counts (``{"serial": 5, …}``).
    residuals:
        Per-kind RMS relative residual of the fit (observed vs fitted
        model, dimensionless).
    source:
        Where the samples came from: ``"bench"``, ``"trace"`` or
        ``"live"``.
    created_at:
        Unix timestamp (seconds) supplied by the caller — injected, not
        read here, so deterministic tests can fix it.
    host:
        :func:`host_fingerprint` of the fitting machine.
    """

    costs: KernelCosts
    created_at: float
    source: str = "live"
    host: dict[str, Any] = field(default_factory=host_fingerprint)
    m_coeffs: tuple[float, float, float, float] | None = None
    s1_coeffs: tuple[float, float, float, float] | None = None
    samples: dict[str, int] = field(default_factory=dict)
    residuals: dict[str, float] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (the on-disk schema)."""
        return {
            "schema_version": self.schema_version,
            "created_at": self.created_at,
            "source": self.source,
            "host": dict(self.host),
            "costs": dataclasses.asdict(self.costs),
            "tuning": (
                None
                if self.m_coeffs is None or self.s1_coeffs is None
                else {
                    "m_coeffs": list(self.m_coeffs),
                    "s1_coeffs": list(self.s1_coeffs),
                }
            ),
            "fit": {
                "samples": dict(self.samples),
                "residuals": dict(self.residuals),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def save(self, path: str) -> None:
        """Validate, then write the profile to ``path``."""
        self.validate()
        with open(path, "w") as fp:
            fp.write(self.to_json())
            fp.write("\n")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CalibrationProfile":
        """Parse and validate one profile document.

        Raises :class:`ProfileError` on any schema violation.
        """
        if not isinstance(data, dict):
            raise ProfileError(f"profile must be a JSON object, got {type(data).__name__}")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ProfileError(
                f"unsupported profile schema_version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        for key in ("created_at", "source", "host", "costs", "fit"):
            if key not in data:
                raise ProfileError(f"profile is missing required key {key!r}")
        costs_doc = data["costs"]
        if not isinstance(costs_doc, dict):
            raise ProfileError("'costs' must be an object")
        missing = set(_COST_FIELDS) - set(costs_doc)
        if missing:
            raise ProfileError(f"'costs' is missing fields: {sorted(missing)}")
        unknown = set(costs_doc) - set(_COST_FIELDS)
        if unknown:
            raise ProfileError(f"'costs' has unknown fields: {sorted(unknown)}")
        try:
            costs = KernelCosts(**{k: float(v) for k, v in costs_doc.items()})
        except (TypeError, ValueError) as exc:
            raise ProfileError(f"bad cost value: {exc}") from None
        tuning = data.get("tuning")
        m_coeffs = s1_coeffs = None
        if tuning is not None:
            if (
                not isinstance(tuning, dict)
                or "m_coeffs" not in tuning
                or "s1_coeffs" not in tuning
            ):
                raise ProfileError("'tuning' must hold m_coeffs and s1_coeffs")
            m_coeffs = _coeff_tuple(tuning["m_coeffs"], "m_coeffs")
            s1_coeffs = _coeff_tuple(tuning["s1_coeffs"], "s1_coeffs")
        fit = data["fit"]
        if not isinstance(fit, dict):
            raise ProfileError("'fit' must be an object")
        samples_doc = fit.get("samples", {})
        residuals_doc = fit.get("residuals", {})
        if not isinstance(samples_doc, dict) or not isinstance(residuals_doc, dict):
            raise ProfileError("'fit.samples' and 'fit.residuals' must be objects")
        try:
            samples = {str(k): int(v) for k, v in samples_doc.items()}
            residuals = {str(k): float(v) for k, v in residuals_doc.items()}
        except (TypeError, ValueError) as exc:
            raise ProfileError(f"bad fit metadata: {exc}") from None
        host = data["host"]
        if not isinstance(host, dict):
            raise ProfileError("'host' must be an object")
        profile = cls(
            costs=costs,
            created_at=float(data["created_at"]),
            source=str(data["source"]),
            host=host,
            m_coeffs=m_coeffs,
            s1_coeffs=s1_coeffs,
            samples=samples,
            residuals=residuals,
            schema_version=int(version),
        )
        profile.validate()
        return profile

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Sanity-check the profile; raises :class:`ProfileError`.

        Rejects the "absurd coefficient" class: non-finite values
        anywhere, negative costs, non-positive per-element slopes
        (``a <= 0`` would make that kernel free and absorb all
        routing), a non-positive clock period, unknown sample kinds,
        and sample counts below the fitter's minimum of 2 per fitted
        kind.
        """
        for name in _COST_FIELDS:
            value = float(getattr(self.costs, name))
            if not math.isfinite(value):
                raise ProfileError(f"costs.{name} is not finite: {value!r}")
            if value < 0.0:
                raise ProfileError(f"costs.{name} is negative: {value!r}")
        for name in _POSITIVE_SLOPES:
            if float(getattr(self.costs, name)) <= 0.0:
                raise ProfileError(
                    f"costs.{name} must be > 0 (a non-positive per-element "
                    "slope routes every request to this kernel)"
                )
        if self.costs.clock_ns <= 0.0:
            raise ProfileError(f"costs.clock_ns must be > 0, got {self.costs.clock_ns!r}")
        if not math.isfinite(self.created_at) or self.created_at < 0:
            raise ProfileError(f"created_at must be a finite timestamp, got {self.created_at!r}")
        for coeffs, label in ((self.m_coeffs, "m_coeffs"), (self.s1_coeffs, "s1_coeffs")):
            if coeffs is None:
                continue
            if len(coeffs) != 4 or not all(math.isfinite(c) for c in coeffs):
                raise ProfileError(f"tuning.{label} must be 4 finite floats, got {coeffs!r}")
        for kind, count in self.samples.items():
            if kind not in FIT_KINDS:
                raise ProfileError(
                    f"unknown sample kind {kind!r}; expected one of {FIT_KINDS}"
                )
            if count < 2:
                raise ProfileError(
                    f"kind {kind!r} was fitted from {count} sample(s); "
                    "a linear fit needs at least 2"
                )
        for kind, residual in self.residuals.items():
            if kind not in FIT_KINDS:
                raise ProfileError(f"residual for unknown kind {kind!r}")
            if not math.isfinite(residual) or residual < 0:
                raise ProfileError(f"residual for {kind!r} must be finite and >= 0")
        if not self.samples:
            raise ProfileError("profile was fitted from no samples")

    @property
    def fitted_kinds(self) -> tuple[str, ...]:
        """The kinds this profile's samples actually covered."""
        return tuple(kind for kind in FIT_KINDS if self.samples.get(kind, 0) >= 2)

    def summary_rows(self) -> list[list[object]]:
        """Rows for ``bench.harness.format_table`` (``calibrate show``)."""
        c = self.costs
        rows: list[list[object]] = [
            ["source", self.source],
            ["created_at (unix)", self.created_at],
            ["host", f"{self.host.get('node', '?')} ({self.host.get('machine', '?')}, "
                     f"{self.host.get('cpu_count', '?')} cpu)"],
            ["clock_ns", c.clock_ns],
            ["serial T(n)", f"{c.serial_per_elem:.4g}·n + {c.serial_const:.4g}"],
            ["wyllie round T(n)", f"{c.wyllie_round_per_elem:.4g}·n + {c.wyllie_round_const:.4g}"],
            ["combined rank a·x+b", f"{c.a:.4g}·x + {c.b:.4g}"],
            ["combined pack c·x+d", f"{c.c:.4g}·x + {c.d:.4g}"],
            ["bookkeeping e·m+f", f"{c.e:.4g}·m + {c.f:.4g}"],
        ]
        if self.m_coeffs is not None:
            rows.append(["m(n) cubic (ln n)", ", ".join(f"{v:.4g}" for v in self.m_coeffs)])
        if self.s1_coeffs is not None:
            rows.append(["S1(n) cubic (ln n)", ", ".join(f"{v:.4g}" for v in self.s1_coeffs)])
        for kind in FIT_KINDS:
            if kind in self.samples:
                rows.append([
                    f"fit[{kind}]",
                    f"{self.samples[kind]} sample(s), "
                    f"RMS rel residual {self.residuals.get(kind, float('nan')):.3g}",
                ])
        return rows


def _coeff_tuple(values: Any, label: str) -> tuple[float, float, float, float]:
    try:
        coeffs = tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise ProfileError(f"tuning.{label} must be a list of floats") from None
    if len(coeffs) != 4:
        raise ProfileError(f"tuning.{label} must have exactly 4 coefficients")
    return coeffs  # type: ignore[return-value]


def load_profile(path: str) -> CalibrationProfile:
    """Read and validate a profile file; raises :class:`ProfileError`
    on malformed JSON as well as schema violations."""
    try:
        with open(path) as fp:
            data = json.load(fp)
    except OSError as exc:
        raise ProfileError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProfileError(f"{path}: not valid JSON: {exc}") from None
    return CalibrationProfile.from_dict(data)
