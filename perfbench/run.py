"""The repo benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rank_4m --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``rank_4m``, ``engine_zipf``,
``serve_1m``, ``serve_small``.

``--trace 0`` sets the workload up :data:`SETUPS` times (the median is
``setup_s``), measures for ``--seconds`` with no shims installed and
reports the end-to-end metrics.  Failed or mismatched ops are the
result's ``failed`` out of ``attempted``.

``--trace 1`` measures half the time untraced and half with the layer
shims of ``layers.py`` installed, and reports every per-layer metric
(0 for a layer the workload does not reach) plus the tracing overhead.

Before the result, stdout carries one ``provenance`` JSON line (host
fingerprint, nproc, cache sizes, working set, host gather probe, tail
percentile and sample count) and one line per metric.  The last line
is the result.  The exit code is 0 when every op was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from boot import bootstrap

bootstrap()

import numpy as np  # noqa: E402

import measure  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from repro.analysis.predict import predict_run  # noqa: E402
from repro.core.list_scan import list_scan  # noqa: E402
from workloads import WORKLOADS, Workload, make_list  # noqa: E402

#: Setups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3

#: Nodes of the list the serial baseline scans (a Python loop at about
#: a microsecond per node, so kept short).
SERIAL_NODES = 1 << 16

E2E_UNITS = {
    "setup_s": "s",
    "ns_per_elem_p50": "ns",
    "elems_per_s": "elem/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def serial_ns_per_elem(seed: int, reps: int = 3) -> float:
    """The paper's serial baseline: ``list_scan(algorithm="serial")``."""
    lst, expected = make_list(np.random.default_rng([seed, 4]), SERIAL_NODES)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = list_scan(lst, algorithm="serial")
        times.append(time.perf_counter() - t0)
        if not np.array_equal(out, expected):
            raise RuntimeError("serial baseline disagrees with the oracle")
    return 1e9 * statistics.median(times) / SERIAL_NODES


def run_e2e(wl: Workload, seconds: float) -> tuple[dict[str, float], dict, int, int]:
    setup_times = []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
        if i < SETUPS - 1:
            wl.teardown()
    outcome = wl.measure(seconds)
    metrics, detail = measure.e2e_metrics(outcome.rec, outcome.wall, wl.in_flight)
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = outcome.peak_rss_mb
    detail["setup_samples_s"] = setup_times
    return metrics, detail, outcome.attempted, outcome.failed


def run_traced(wl: Workload, seconds: float, seed: int) -> tuple[dict[str, float], dict, int, int]:
    wl.setup(traced=False)
    plain = wl.measure(seconds / 2)
    wl.teardown()
    wl.setup(traced=True)
    traced = wl.measure(seconds / 2, traced=True)
    base = wl.primary_seconds(plain)
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    metrics.update(traced.layers)
    if wl.op_nodes:
        metrics["model.packs_predicted"] = float(predict_run(wl.op_nodes).n_packs)
    serial = serial_ns_per_elem(seed)
    metrics["baseline.serial_ns_per_elem"] = serial
    metrics["kernels.speedup_vs_serial"] = serial / (1e9 * base)
    metrics["trace.overhead_frac"] = (wl.primary_seconds(traced) - base) / base
    detail = {"untraced_ops": len(plain.rec), "traced_ops": len(traced.rec)}
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return metrics, detail, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    wl = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            metrics, detail, attempted, failed = run_traced(wl, args.seconds, args.seed)
            units = PER_LAYER_UNITS
        else:
            metrics, detail, attempted, failed = run_e2e(wl, args.seconds)
            units = E2E_UNITS
    finally:
        wl.teardown()
    # after the run, so its arrays do not count towards peak_rss_mb
    gather = measure.gather_ns_per_elem(seed=args.seed)
    if args.trace:
        metrics["host.gather_ns_per_elem"] = gather

    print(json.dumps({
        "provenance": {
            **measure.provenance(),
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "working_set_bytes": wl.working_set_bytes,
            "host.gather_ns_per_elem": gather,
            "failed_frac": failed / attempted,
            **detail,
        }
    }))
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
