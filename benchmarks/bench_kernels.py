"""Section 3 — the per-kernel timing equations.

The paper fits every subroutine to ``T(x) = a·x + b`` clocks.  This
bench (a) prints the machine model's derived equations next to the
paper's, and (b) *measures* the two hot kernels from actual simulated
runs — fitting (a, b) to the phase-1/phase-3 traversal step costs
recorded by the simulator — to confirm the simulation reproduces the
equations it was derived from end to end.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench.harness import print_table, record
from repro.bench.workloads import get_random_list
from repro.core.operators import AFFINE, SUM
from repro.core.forest import forest_list_scan
from repro.kernels import available_backends, resolve_backend
from repro.machine.calibration import compare_with_paper
from repro.machine.config import CRAY_C90
from repro.simulate.sublist_sim import sublist_rank_sim


@pytest.mark.benchmark(group="kernels")
def test_section3_kernel_equations(benchmark):
    table = benchmark.pedantic(
        lambda: compare_with_paper(CRAY_C90), rounds=1, iterations=1
    )
    rows = [
        [
            name,
            f"{row['paper_a']:.1f}x + {row['paper_b']:.0f}",
            f"{row['model_a']:.2f}x + {row['model_b']:.0f}",
            100 * row["rel_err_a"],
        ]
        for name, row in table.items()
    ]
    print_table(
        ["kernel", "paper equation", "model equation", "slope err %"],
        rows,
        title="Section 3: kernel timing equations (clocks)",
    )
    worst = max(row["rel_err_a"] for row in table.values())
    record(
        "kernels",
        "worst kernel slope error vs paper equations",
        0.0,
        worst,
        "rel err",
        ok=worst < 0.15,
    )


@pytest.mark.benchmark(group="kernels")
def test_phase_costs_scale_with_n(benchmark, smoke):
    """End-to-end check: phase-1 + phase-3 cycles grow ≈ linearly in n
    with slope ≈ a = 8.4 (the combined rank slope)."""

    def run():
        sizes = (
            [1 << 13, 1 << 14, 1 << 15]
            if smoke
            else [1 << 16, 1 << 18, 1 << 20]
        )
        totals = []
        for n in sizes:
            res = sublist_rank_sim(get_random_list(n), rng=0)
            totals.append(res.breakdown["phase1"] + res.breakdown["phase3"])
        return np.asarray(sizes, dtype=float), np.asarray(totals)

    sizes, totals = benchmark.pedantic(run, rounds=1, iterations=1)
    slope = np.polyfit(sizes, totals, 1)[0]
    print_table(
        ["n", "phase1+3 clocks", "clocks/elem"],
        [[int(n), t, t / n] for n, t in zip(sizes, totals)],
        title="Phases 1+3 cost vs n (paper slope a = 8.4 clk/elem)",
    )
    record(
        "kernels",
        "phase-1+3 marginal cost per element (paper a = 8.4)",
        8.4,
        float(slope),
        "clk/elem",
        ok=7.0 < slope < 11.0,
    )


def _time_backend(lst, op, backend, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = forest_list_scan(
            lst.next, lst.values, [lst.head], op, rng=0, kernel_backend=backend
        )
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.mark.benchmark(group="kernel-backends")
def test_kernel_backend_comparison(benchmark, smoke, full_sweep):
    """Wall-clock comparison of the kernel backends.

    The ratios are *recorded* in the harness registry (the CI artifact),
    never asserted here; the perf gate compares them with the committed
    baseline.  A backend is timed only on the operators it
    ``supports()``: on any other it would time the NumPy fallback.
    """
    from repro.lists.generate import random_list

    n = 20_000 if smoke else (500_000 if full_sweep else 100_000)
    rng = np.random.default_rng(3)
    lst = random_list(n, rng, values=rng.integers(-50, 50, n))
    affine = random_list(
        n,
        rng,
        values=np.stack(
            [rng.uniform(0.5, 1.5, n), rng.uniform(-1, 1, n)], axis=1
        ),
    )

    def run():
        rows = []
        for op_label, work, op in (("sum", lst, SUM), ("affine", affine, AFFINE)):
            t_ref, ref = _time_backend(work, op, "numpy")
            rows.append([op_label, "numpy", t_ref, 1.0])
            for backend in available_backends():
                if backend == "numpy" or not resolve_backend(backend).supports(op, work.values):
                    continue
                t_b, got = _time_backend(work, op, backend)
                np.testing.assert_array_equal(got, ref)
                rows.append([op_label, backend, t_b, t_ref / t_b])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        ["operator", "backend", "seconds", "speedup vs numpy"],
        rows,
        title=f"kernel backends, n = {n:,} (recorded, never asserted)",
    )
    for op_label, backend, _, ratio in rows:
        if backend == "numpy":
            continue
        record(
            "kernel_backends",
            f"{backend} backend vs numpy reference ({op_label})",
            None,
            float(ratio),
            "x",
            ok=True,
            note=f"n={n:,}; informational — ratio recorded, not asserted",
        )
