"""Calibration sweep: fit-ready timings plus a fit sanity check.

Times the three fitted kinds (forced, no engine overhead)
across a size sweep and registers every observation via
``record_fit_sample`` — so the session's JSON artifact doubles as the
input for ``repro-c90 calibrate fit --from-bench``.  Then fits a
profile from those very samples in-process and records two claims:

* the fit succeeds with sane (positive) coefficients and modest
  residuals — the paper's Section 4.4 "the equations predict the
  measurements" claim, transplanted to this host;
* the fitted profile's routing differs from the static C-90 table
  somewhere in the sweep range (on a CPython/NumPy host the
  Wyllie/sublist crossover moves, because pointer jumping's few large
  array operations cost far less *relative to* the sublist kernels'
  many small ones than they did on the C-90).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench.harness import print_table, record, record_fit_sample
from repro.calibrate import FitSample, fit_profile
from repro.core.list_scan import list_scan
from repro.engine.router import Router
from repro.lists.generate import random_list


def _time_best(lst, algorithm, repeats, rng):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        list_scan(lst, algorithm=algorithm, rng=rng)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.benchmark(group="calibration")
def test_calibration_sweep_and_fit(smoke, full_sweep):
    if smoke:
        sweeps = {
            "serial": (1 << 8, 1 << 10, 1 << 12, 1 << 13),
            "wyllie": (1 << 10, 1 << 12, 1 << 14, 1 << 15),
            "sublist": (1 << 10, 1 << 12, 1 << 14, 1 << 15),
        }
        repeats = 3
    else:
        top = 21 if full_sweep else 18
        sweeps = {
            "serial": tuple(1 << k for k in range(8, 17, 2)),
            "wyllie": tuple(1 << k for k in range(10, top, 2)),
            "sublist": tuple(1 << k for k in range(10, top, 2)),
        }
        repeats = 5

    rng = np.random.default_rng(20260808)
    rows = []
    samples = []
    for algorithm, sizes in sweeps.items():
        for n in sizes:
            lst = random_list(int(n), rng=rng)
            seconds = _time_best(lst, algorithm, repeats, rng)
            record_fit_sample(algorithm, n, seconds)
            samples.append(FitSample(kind=algorithm, x=int(n), seconds=seconds))
            rows.append([algorithm, n, seconds * 1e3, seconds / n * 1e9])
    print_table(
        ["algorithm", "n", "ms (best of k)", "ns/node"],
        rows,
        title=f"calibration sweep (best of {repeats})",
    )

    profile = fit_profile(samples, source="bench", created_at=time.time())
    print_table(["field", "value"], profile.summary_rows(),
                title="fitted profile")

    worst_residual = max(profile.residuals.values())
    record(
        "calibration",
        "cost-model refit converges with sane coefficients",
        paper=None,
        measured=worst_residual,
        unit="rms rel residual",
        ok=worst_residual < 1.0,
        note=f"kinds: {', '.join(profile.fitted_kinds)}",
    )

    static = Router()
    fitted = Router(costs=profile.costs)
    probe_top = max(max(s) for s in sweeps.values())
    probes = [1 << k for k in range(6, probe_top.bit_length())]
    changed = sum(
        1 for n in probes if static.choose(n) != fitted.choose(n)
    )
    record(
        "calibration",
        "fitted profile changes routing vs the static C-90 table",
        paper=None,
        measured=float(changed),
        unit="probe sizes rerouted",
        ok=changed >= 1,
        note=(
            f"wyllie->sublist crossover {static.crossover():,} -> "
            f"{fitted.crossover():,} nodes"
        ),
    )
