"""Tests for the public dispatch API and package surface."""

import numpy as np
import pytest

import repro
from repro.baselines.serial import serial_list_rank, serial_list_scan
from repro.core.list_scan import ALGORITHMS, list_rank, list_scan
from repro.core.forest import forest_list_scan
from repro.core.operators import MAX, get_operator
from repro.core.stats import ScanStats
from repro.lists.generate import LinkedList, random_list
from repro.lists.validate import ListStructureError


class TestListScanDispatch:
    @pytest.mark.parametrize(
        "algorithm",
        ["sublist", "wyllie", "serial", "random_mate", "anderson_miller"],
    )
    def test_all_algorithms_agree(self, algorithm, rng):
        lst = random_list(2000, rng, values=rng.integers(-9, 9, 2000))
        got = list_scan(lst, algorithm=algorithm, rng=rng)
        assert np.array_equal(got, serial_list_scan(lst))

    def test_auto_small_uses_serial(self, rng):
        lst = random_list(100, rng, values=rng.integers(-9, 9, 100))
        assert np.array_equal(
            list_scan(lst, algorithm="auto"), serial_list_scan(lst)
        )

    def test_auto_large(self, rng):
        lst = random_list(10_000, rng, values=rng.integers(-9, 9, 10_000))
        assert np.array_equal(
            list_scan(lst, algorithm="auto", rng=rng), serial_list_scan(lst)
        )

    def test_operator_by_name(self, rng):
        lst = random_list(500, rng, values=rng.integers(-9, 9, 500))
        assert np.array_equal(
            list_scan(lst, "max", rng=rng), serial_list_scan(lst, MAX)
        )

    def test_inclusive_flag(self, rng):
        lst = random_list(500, rng, values=rng.integers(-9, 9, 500))
        assert np.array_equal(
            list_scan(lst, inclusive=True, rng=rng),
            serial_list_scan(lst, inclusive=True),
        )

    def test_unknown_algorithm(self, small_list):
        with pytest.raises(ValueError, match="unknown algorithm"):
            list_scan(small_list, algorithm="quantum")

    def test_validate_rejects_corrupt(self):
        from repro.lists.generate import INDEX_DTYPE

        lst = LinkedList.__new__(LinkedList)
        lst.next = np.array([1, 2, 0], dtype=INDEX_DTYPE)
        lst.head = 0
        lst.values = np.ones(3, dtype=np.int64)
        with pytest.raises(ListStructureError):
            list_scan(lst)

    def test_validate_accepts_good(self, small_list):
        got = list_scan(small_list)
        assert np.array_equal(got, serial_list_scan(small_list))

    def test_kwargs_forwarded(self, rng):
        from repro.core.sublist import SublistConfig

        lst = random_list(3000, rng, values=rng.integers(-9, 9, 3000))
        got = list_scan(lst, config=SublistConfig(m=64, s1=8.0), rng=rng)
        assert np.array_equal(got, serial_list_scan(lst))

    def test_stats_filled(self, rng):
        lst = random_list(5000, rng)
        stats = ScanStats()
        list_scan(lst, rng=rng, stats=stats)
        assert stats.element_ops > 0

    def test_serial_counts_its_element_ops(self, rng):
        lst = random_list(300, rng)
        stats = ScanStats()
        list_scan(lst, algorithm="serial", stats=stats)
        assert stats.element_ops == lst.n


class TestAutoRouting:
    def test_router_errors_propagate(self, monkeypatch, rng):
        # a genuine router bug propagates out of list_scan unmasked
        import repro.engine.router as router_mod

        def boom(n):
            raise RuntimeError("router bug")

        monkeypatch.setattr(router_mod, "route_algorithm", boom)
        lst = random_list(100, rng)
        with pytest.raises(RuntimeError, match="router bug"):
            list_scan(lst, algorithm="auto")


class TestEngineArgumentCompatibility:
    def test_engine_with_validate_still_works(self, small_list):
        from repro.engine import Engine

        got = Engine().scan(small_list)
        assert np.array_equal(got, serial_list_scan(small_list))


class TestListRank:
    @pytest.mark.parametrize(
        "algorithm",
        ["sublist", "wyllie", "serial", "random_mate", "anderson_miller", "auto"],
    )
    def test_matches_serial(self, algorithm, rng):
        lst = random_list(1500, rng)
        got = list_rank(lst, algorithm=algorithm, rng=rng)
        assert np.array_equal(got, serial_list_rank(lst))

    def test_ignores_values(self, rng):
        """Ranking never reads node values."""
        lst = random_list(400, rng, values=rng.integers(-1000, 1000, 400))
        got = list_rank(lst, rng=rng)
        assert sorted(got) == list(range(400))

    def test_engine_named_param(self):
        from repro.engine import Engine

        lst = random_list(300, 0)
        got = Engine().rank(lst)
        assert np.array_equal(got, serial_list_rank(lst))

    def test_trace_named_param(self):
        from repro.trace.tracer import Tracer, counting_clock

        tracer = Tracer(clock=counting_clock())
        lst = random_list(3000, 0)
        got = list_rank(lst, algorithm="sublist", rng=0, trace=tracer)
        assert np.array_equal(got, serial_list_rank(lst))
        assert tracer.roots  # the scan actually recorded under it

    def test_kernel_backend_named_param(self, monkeypatch):
        # the process's backend, chosen through the environment
        from repro.kernels import ENV_VAR

        monkeypatch.setenv(ENV_VAR, "numpy")
        lst = random_list(3000, 0)
        got = list_rank(lst, algorithm="sublist", rng=0)
        assert np.array_equal(got, serial_list_rank(lst))


class TestReadOnlyInputs:
    """The scans only read their input arrays, so read-only ones work."""

    @staticmethod
    def _values(op, rng, n):
        if op == "sum":
            return rng.integers(-50, 50, n)
        return np.stack([rng.uniform(0.5, 1.5, n), rng.uniform(-1.0, 1.0, n)], axis=1)

    @staticmethod
    def _check(got, want, op):
        if op == "sum":
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("op", ["sum", "affine"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_list_scan(self, algorithm, op, rng):
        n = 8000  # large enough for auto to route to sublist
        lst = random_list(n, rng, values=self._values(op, rng, n))
        saved = lst.copy()
        lst.next.flags.writeable = False
        lst.values.flags.writeable = False
        got = list_scan(lst, op, algorithm=algorithm, rng=rng)
        self._check(got, serial_list_scan(saved, op), op)
        np.testing.assert_array_equal(lst.next, saved.next)
        np.testing.assert_array_equal(lst.values, saved.values)

    @pytest.mark.parametrize("op", ["sum", "affine"])
    def test_forest_scan_with_carries(self, op, rng):
        lists = [random_list(k, rng, values=self._values(op, rng, k)) for k in (3000, 2000, 4000)]
        offsets = np.cumsum([0] + [lst.n for lst in lists])
        nxt = np.concatenate([lst.next + o for lst, o in zip(lists, offsets)])
        values = np.concatenate([lst.values for lst in lists])
        heads = np.array([lst.head + o for lst, o in zip(lists, offsets)])
        carries = self._values(op, rng, 3)
        saved = [a.copy() for a in (nxt, values, heads, carries)]
        for a in (nxt, values, heads, carries):
            a.flags.writeable = False
        got = forest_list_scan(nxt, values, heads, op, carries=carries, rng=rng)
        combine = get_operator(op).combine
        for k, lst in enumerate(lists):
            want = combine(carries[k], serial_list_scan(lst, op))
            self._check(got[offsets[k] : offsets[k + 1]], want, op)
        for a, b in zip((nxt, values, heads, carries), saved):
            np.testing.assert_array_equal(a, b)


class TestPackageSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_algorithms_constant(self):
        assert "sublist" in ALGORITHMS and "auto" in ALGORITHMS

    def test_readme_quickstart_works(self):
        lst = repro.random_list(10_000, rng=0)
        ranks = repro.list_rank(lst)
        sums = repro.list_scan(lst, "sum")
        assert ranks[lst.head] == 0
        assert sums[lst.head] == 0
        res = repro.sublist_scan_sim(lst, n_processors=8)
        assert res.config.name == "CRAY C-90"
        assert res.ns_per_element > 0
