"""Engine-level golden tests for the kernel backends.

Two contracts:

* **equivalence** — for every ``executor`` × kernel backend (chosen
  for the process through ``REPRO_KERNEL_BACKEND``) the engine returns
  the same bits: exactly the serial oracle's for integer operators,
  and for ``AFFINE`` the NumPy reference's, within a tolerance of the
  serial oracle (docs/kernels.md);
* **routing neutrality** — the router does not consult the kernel
  backend, so forcing ``numpy`` or ``c`` changes *no* routing decision
  relative to the default router.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.serial import serial_list_scan
from repro.core.operators import AFFINE, SUM, XOR
from repro.engine import Engine, ScanRequest
from repro.engine.router import CANDIDATES, Router
from repro.engine.workers import EXECUTORS
from repro.kernels import ENV_VAR
from repro.lists.generate import random_list

from .conftest import C_BACKEND, HAVE_C

BACKENDS = ("numpy", C_BACKEND)


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
        # the same bits as the numpy reference on the sync driver; the
        # serial oracle folds in another order, so within a tolerance
        lists = affine_batch(seed=9)
        monkeypatch.setenv(ENV_VAR, "numpy")
        with Engine(executor="sync", cache_capacity=0, seed=0) as engine:
            reference = engine.map_scan(lists, AFFINE)
        monkeypatch.setenv(ENV_VAR, backend)
        with Engine(executor=executor, cache_capacity=0, seed=0) as engine:
            results = engine.map_scan(lists, AFFINE)
        for lst, ref, got in zip(lists, reference, results):
            assert got.tobytes() == ref.tobytes()
            np.testing.assert_allclose(
                got, serial_list_scan(lst, AFFINE), rtol=1e-9, atol=1e-12
            )

    def test_backends_agree_elementwise(self, monkeypatch):
        # same batch through every backend: int results bit-identical
        lists = int_batch(seed=13)
        per_backend = {}
        for backend in ("numpy", "c") if HAVE_C else ("numpy",):
            monkeypatch.setenv(ENV_VAR, backend)
            with Engine(executor="sync", cache_capacity=0) as engine:
                per_backend[backend] = engine.map_scan(lists, SUM)
        for backend, results in per_backend.items():
            for a, b in zip(per_backend["numpy"], results):
                np.testing.assert_array_equal(a, b, err_msg=backend)


class TestRoutingNeutrality:
    """The kernel backend must not perturb routing decisions."""

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


class TestWorkerBackendDegradation:
    def test_worker_tasks_carry_the_engine_backend(self, monkeypatch):
        # the engine resolves its backend once: a later change of the
        # variable (to c, which need not even build here) does not move
        # the kernels its pool threads run
        from repro.engine import engine as engine_module

        monkeypatch.setenv(ENV_VAR, "numpy")
        ran_on = []
        run_fused_kernel = engine_module.run_fused_kernel

        def spy(*args, kernel_backend=None, **kwargs):
            ran_on.append(kernel_backend.name)
            return run_fused_kernel(*args, kernel_backend=kernel_backend, **kwargs)

        monkeypatch.setattr(engine_module, "run_fused_kernel", spy)
        lists = int_batch(seed=3, count=4, max_n=3000)
        ops = (SUM, "max") * 2  # two shards: they go to the pool
        with Engine(executor="threads", max_workers=2, cache_capacity=0, seed=0) as engine:
            monkeypatch.setenv(ENV_VAR, "c")
            results = [
                resp.result
                for resp in engine.run_batch(
                    [ScanRequest(lst=lst, op=op) for lst, op in zip(lists, ops)]
                )
            ]
            assert engine.kernel_backend == "numpy"
            assert engine._backend.pools_created == 1
        assert ran_on == ["numpy", "numpy"]
        for lst, op, got in zip(lists, ops, results):
            np.testing.assert_array_equal(got, serial_list_scan(lst, op))
