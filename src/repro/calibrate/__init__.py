"""Host cost-model calibration (closing the Section 4.4 loop).

The paper's central empirical claim is that the Section 3/4 kernel
equations *predict measured runtimes*: every kernel is ``T = a·x + b``,
the live-sublist trajectory follows ``g(s) = m·e^(−m·s/n)`` (Eq. 2),
and the tuned ``m(n)``/``S₁(n)`` are cubic polynomials of ``log n``
(Section 4.4).  The engine's router applies exactly those equations —
but, out of the box, with the coefficients measured on a 1994 Cray
C-90.  This package fits the same equations to *this* machine:

* :mod:`records <repro.calibrate.records>` — fit-ready ``(kind, x,
  seconds)`` samples, extracted from live traces
  (``repro.trace.compare``), from CI bench artifacts
  (``bench.harness.write_records_json`` output), or measured directly
  (:mod:`live <repro.calibrate.live>`);
* :mod:`fitter <repro.calibrate.fitter>` — least-squares refits of the
  per-kernel linear coefficients and the polylog tuning fits;
* :mod:`profile <repro.calibrate.profile>` — the versioned,
  schema-validated on-disk calibration profile (host fingerprint,
  sample counts, residuals).

A profile is built offline with ``repro-c90 calibrate fit`` and fixed
when an engine is built: ``Engine(calibration=profile)`` routes on its
table and drift-checks every executed shard against it, as the paper
fits its timing equations once and evaluates them at run time.  See
``docs/calibration.md``.
"""

from .fitter import FitError, FitResult, fit_linear, fit_profile
from .live import measure_samples
from .profile import (
    CalibrationProfile,
    ProfileError,
    SCHEMA_VERSION,
    host_fingerprint,
    load_profile,
)
from .records import (
    FitSample,
    load_samples,
    samples_from_bench_payload,
    samples_from_trace_payload,
)

__all__ = [
    "CalibrationProfile",
    "FitError",
    "FitResult",
    "FitSample",
    "ProfileError",
    "SCHEMA_VERSION",
    "fit_linear",
    "fit_profile",
    "host_fingerprint",
    "load_profile",
    "load_samples",
    "measure_samples",
    "samples_from_bench_payload",
    "samples_from_trace_payload",
]
