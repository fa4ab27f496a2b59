"""Engine-level golden tests for the pluggable kernel backends.

Two contracts:

* **equivalence** — for every ``executor`` × kernel backend (chosen
  for the process through ``REPRO_KERNEL_BACKEND``) the engine returns
  exactly what the dispatch API produces (bit-identical for integer
  operators, tolerance-equal for float/AFFINE, per docs/kernels.md);
* **routing neutrality** — the reference backends (``numpy``,
  ``python``) carry calibration factors of 1.0, so forcing them
  changes *no* routing decision relative to the default router.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.serial import serial_list_scan
from repro.core.operators import AFFINE, SUM, XOR, Operator
from repro.engine import Engine
from repro.engine.router import CANDIDATES, Router
from repro.engine.workers import offloadable_operator, shippable_operator
from repro.kernels import ENV_VAR
from repro.kernels.backend import NumbaBackend
from repro.lists.generate import random_list

from .conftest import make_affine_values

BACKENDS = ("numpy", "python")
EXECUTORS = ("sync", "threads", "processes")


def int_batch(seed=0, count=8, max_n=5000):
    rng = np.random.default_rng(seed)
    sizes = np.linspace(10, max_n, count).astype(int)
    return [
        random_list(int(n), rng, values=rng.integers(-50, 50, int(n)))
        for n in sizes
    ]


def affine_batch(seed=0, count=6, max_n=5000):
    rng = np.random.default_rng(seed)
    sizes = np.linspace(10, max_n, count).astype(int)
    return [
        random_list(
            int(n),
            rng,
            values=np.stack(
                [rng.uniform(0.5, 1.5, int(n)), rng.uniform(-1, 1, int(n))],
                axis=1,
            ),
        )
        for n in sizes
    ]


class TestGoldenAcrossExecutors:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("op", [SUM, XOR])
    def test_int_bit_identical(self, executor, backend, op, monkeypatch):
        monkeypatch.setenv(ENV_VAR, backend)
        lists = int_batch(seed=5)
        with Engine(executor=executor, cache_capacity=0, seed=0) as engine:
            assert engine.kernel_backend == backend
            results = engine.map_scan(lists, op)
        for lst, got in zip(lists, results):
            np.testing.assert_array_equal(got, serial_list_scan(lst, op))

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_affine_tolerance(self, executor, backend, monkeypatch):
        monkeypatch.setenv(ENV_VAR, backend)
        lists = affine_batch(seed=9)
        with Engine(executor=executor, cache_capacity=0, seed=0) as engine:
            results = engine.map_scan(lists, AFFINE)
        for lst, got in zip(lists, results):
            np.testing.assert_allclose(
                got, serial_list_scan(lst, AFFINE), rtol=1e-9, atol=1e-12
            )

    def test_backends_agree_elementwise(self, monkeypatch):
        # same batch through both backends: int results bit-identical
        lists = int_batch(seed=13)
        per_backend = {}
        for backend in BACKENDS:
            monkeypatch.setenv(ENV_VAR, backend)
            with Engine(executor="sync", cache_capacity=0) as engine:
                per_backend[backend] = engine.map_scan(lists, SUM)
        for a, b in zip(per_backend["numpy"], per_backend["python"]):
            np.testing.assert_array_equal(a, b)


class TestRoutingNeutrality:
    """Reference backends must not perturb routing decisions."""

    SIZES = (1, 64, 512, 2048, 10_000, 1 << 16, 1 << 20)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_forced_reference_backend_routes_identically(self, backend, monkeypatch):
        default = Router()
        monkeypatch.setenv(ENV_VAR, backend)
        forced = Router()
        for n in self.SIZES:
            assert forced.choose(n) == default.choose(n)
            for alg in CANDIDATES:
                assert forced.predicted_clocks(n, alg) == pytest.approx(
                    default.predicted_clocks(n, alg)
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_router_decisions_unchanged(self, backend, monkeypatch):
        default = Engine()
        monkeypatch.setenv(ENV_VAR, backend)
        forced = Engine()
        assert forced.kernel_backend == backend
        for n in self.SIZES:
            assert forced.router.choose(n) == default.router.choose(n)

    def test_compiled_backend_scales_coefficients(self):
        # the numba calibration lowers the per-element rank/pack slopes;
        # scaled_costs is pure arithmetic, so it is testable without numba
        from repro.analysis.cost_model import PAPER_C90_COSTS

        scaled = NumbaBackend().scaled_costs(PAPER_C90_COSTS)
        assert scaled.initial_rank_per_elem == pytest.approx(
            PAPER_C90_COSTS.initial_rank_per_elem * 0.25
        )
        assert scaled.final_pack_per_elem == pytest.approx(
            PAPER_C90_COSTS.final_pack_per_elem * 0.25
        )


class TestShippableOperator:
    def test_builtin_ships_by_name(self):
        assert shippable_operator(SUM) == "sum"
        assert offloadable_operator(SUM)

    def test_affine_ships_by_name(self):
        assert shippable_operator(AFFINE) == "affine"

    def test_unregistered_op_not_shippable(self):
        op = Operator(name="opaque", combine=np.add, identity=0)
        assert shippable_operator(op) is None
        assert not offloadable_operator(op)


class TestWorkerBackendDegradation:
    def test_unknown_backend_degrades_to_numpy(self, rng):
        # a worker whose environment lacks the parent's backend (e.g.
        # parent auto-detected numba) must degrade to numpy, not fail
        from repro.engine.workers import _ArrayRef, _FusedTask, _run_fused_task

        n = 2000
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        task = _FusedTask(
            nxt=_ArrayRef(lst.next.shape, lst.next.dtype.str, inline=lst.next),
            values=_ArrayRef(lst.values.shape, lst.values.dtype.str, inline=lst.values),
            out=_ArrayRef(lst.values.shape, lst.values.dtype.str),
            heads=np.array([lst.head], dtype=lst.next.dtype),
            op_name="sum",
            inclusive=False,
            algorithm="sublist",
            seed=0,
            traced=False,
            kernel_backend="numba-gpu-42",  # never a valid name
        )
        _, _, out = _run_fused_task(task)
        np.testing.assert_array_equal(out, serial_list_scan(lst, SUM))

    def test_custom_op_runs_inline_on_processes(self):
        # a custom operator cannot cross the process boundary by name:
        # the processes engine runs it inline, and answers right
        op = Operator(name="custom_add", combine=np.add, identity=0)
        lists = int_batch(seed=21, count=4, max_n=4000)
        with Engine(executor="processes", cache_capacity=0, seed=0) as engine:
            results = engine.map_scan(lists, op)
            assert engine._backend.tasks_offloaded == 0
        for lst, got in zip(lists, results):
            np.testing.assert_array_equal(got, serial_list_scan(lst, op))

    def test_worker_tasks_carry_the_engine_backend(self, monkeypatch):
        # the engine resolves its backend once: a later change of the
        # variable moves neither its inline kernels nor its workers
        from repro.engine import workers

        monkeypatch.setenv(ENV_VAR, "python")
        shipped = []
        run_task = workers.ProcessBackend.run_task

        def spy(self, fn, *args):
            shipped.append(args[0].kernel_backend)
            return run_task(self, fn, *args)

        monkeypatch.setattr(workers.ProcessBackend, "run_task", spy)
        lists = int_batch(seed=3, count=4, max_n=3000)
        with Engine(executor="processes", cache_capacity=0, seed=0) as engine:
            monkeypatch.setenv(ENV_VAR, "numpy")
            results = engine.map_scan(lists, SUM)
            assert engine.kernel_backend == "python"
        assert shipped and set(shipped) == {"python"}
        for lst, got in zip(lists, results):
            np.testing.assert_array_equal(got, serial_list_scan(lst, SUM))
