"""Engine-level golden tests for the pluggable kernel backends.

Two contracts:

* **equivalence** — for every ``executor`` × ``kernel_backend``
  combination the engine returns exactly what the dispatch API
  produces (bit-identical for integer operators, tolerance-equal for
  float/AFFINE, per docs/kernels.md);
* **routing neutrality** — the reference backends (``numpy``,
  ``python``) carry calibration factors of 1.0, so forcing them
  changes *no* routing decision relative to the default router.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.serial import serial_list_scan
from repro.core.forest import Forest
from repro.core.operators import AFFINE, SUM, XOR, Operator
from repro.engine import Engine
from repro.engine.router import CANDIDATES, Router
from repro.engine.workers import offloadable_operator, shippable_operator
from repro.kernels import PairSpec, register_pair
from repro.kernels.backend import NumbaBackend
from repro.kernels.pairs import OP_ADD, _PAIR_REGISTRY, pair_for
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
    def test_int_bit_identical(self, executor, backend, op):
        lists = int_batch(seed=5)
        with Engine(
            executor=executor, kernel_backend=backend, cache_capacity=0, seed=0
        ) as engine:
            assert engine.kernel_backend == backend
            results = engine.map_scan(lists, op)
        for lst, got in zip(lists, results):
            np.testing.assert_array_equal(got, serial_list_scan(lst, op))

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_affine_tolerance(self, executor, backend):
        lists = affine_batch(seed=9)
        with Engine(
            executor=executor, kernel_backend=backend, cache_capacity=0, seed=0
        ) as engine:
            results = engine.map_scan(lists, AFFINE)
        for lst, got in zip(lists, results):
            np.testing.assert_allclose(
                got, serial_list_scan(lst, AFFINE), rtol=1e-9, atol=1e-12
            )

    def test_backends_agree_elementwise(self):
        # same batch through both backends: int results bit-identical
        lists = int_batch(seed=13)
        per_backend = {}
        for backend in BACKENDS:
            with Engine(
                executor="sync", kernel_backend=backend, cache_capacity=0
            ) as engine:
                per_backend[backend] = engine.map_scan(lists, SUM)
        for a, b in zip(per_backend["numpy"], per_backend["python"]):
            np.testing.assert_array_equal(a, b)


class TestRoutingNeutrality:
    """Reference backends must not perturb routing decisions."""

    SIZES = (1, 64, 512, 2048, 10_000, 1 << 16, 1 << 20)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_forced_reference_backend_routes_identically(self, backend):
        default = Router()
        forced = Router(kernel_backend=backend)
        for n in self.SIZES:
            assert forced.choose(n) == default.choose(n)
            for alg in CANDIDATES:
                assert forced.predicted_clocks(n, alg) == pytest.approx(
                    default.predicted_clocks(n, alg)
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_router_decisions_unchanged(self, backend):
        default = Engine()
        forced = Engine(kernel_backend=backend)
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
        assert shippable_operator(SUM) == ("sum", None, None)
        assert offloadable_operator(SUM)

    def test_affine_ships_by_name(self):
        assert shippable_operator(AFFINE) == ("affine", None, None)

    def test_registered_pair_op_ships_as_opcodes(self):
        op = Operator(name="ship_me", combine=np.add, identity=0)
        register_pair(op, PairSpec(width=1, companion=OP_ADD))
        try:
            name, pair, identity = shippable_operator(op)
            assert name == "ship_me"
            assert pair == (1, OP_ADD, -1, -1)
            assert identity == 0
            assert offloadable_operator(op)
        finally:
            _PAIR_REGISTRY.pop("ship_me", None)

    def test_unregistered_op_not_shippable(self):
        op = Operator(name="opaque", combine=np.add, identity=0)
        assert shippable_operator(op) is None
        assert not offloadable_operator(op)

    def test_non_plain_identity_not_shippable(self):
        op = Operator(
            name="weird_id", combine=np.add, identity=np.zeros(2)
        )
        register_pair(op, PairSpec(width=1, companion=OP_ADD))
        try:
            assert shippable_operator(op) is None
        finally:
            _PAIR_REGISTRY.pop("weird_id", None)


class TestWorkerBackendDegradation:
    def test_unknown_backend_degrades_to_numpy(self, rng):
        # a worker whose environment lacks the parent's backend (e.g.
        # parent auto-detected numba) must degrade to numpy, not fail
        from repro.engine.workers import ProcessBackend

        n = 2000
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        heads = np.array([lst.head], dtype=lst.next.dtype)
        backend = ProcessBackend(max_workers=1)
        try:
            [out], _, _ = backend.run_fused(
                Forest.of(lst.next, lst.values, heads),
                "sum",
                False,
                "sublist",
                0,
                False,
                kernel_backend="numba-gpu-42",  # never a valid name
            )
        finally:
            backend.close()
        np.testing.assert_array_equal(out, serial_list_scan(lst, SUM))

    def test_custom_pair_op_offloads_to_processes(self, rng):
        # the widened gate: a *registered* non-builtin operator crosses
        # the process boundary as opcodes and comes back correct
        op = Operator(name="shiptest_add", combine=np.add, identity=0)
        register_pair(op, PairSpec(width=1, companion=OP_ADD))
        try:
            assert pair_for(op) is not None
            lists = int_batch(seed=21, count=4, max_n=4000)
            with Engine(
                executor="processes", cache_capacity=0, seed=0
            ) as engine:
                results = engine.map_scan(lists, op)
                offloaded = engine._backend.tasks_offloaded
            assert offloaded > 0, "pair-registered operator never offloaded"
            for lst, got in zip(lists, results):
                np.testing.assert_array_equal(
                    got, serial_list_scan(lst, op)
                )
        finally:
            _PAIR_REGISTRY.pop("shiptest_add", None)
