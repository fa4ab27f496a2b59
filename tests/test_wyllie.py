"""Unit tests for Wyllie's pointer-jumping algorithm.

The host has one Wyllie, ``core.forest.wyllie_forest_scan``;
``wyllie_list_scan`` runs it over the forest of one list.
"""

import numpy as np
import pytest

import repro.core.forest as forest_mod
from repro.baselines.serial import serial_list_scan
from repro.baselines.wyllie import wyllie_list_rank, wyllie_list_scan, wyllie_rounds
from repro.calibrate import measure_samples
from repro.core.list_scan import list_scan
from repro.core.operators import AFFINE, AND, MAX, MIN, OR, PROD, SUM, XOR
from repro.core.stats import ScanStats
from repro.engine import Engine
from repro.lists.generate import (
    LinkedList,
    blocked_list,
    from_order,
    list_order,
    ordered_list,
    random_list,
    reversed_list,
)
from repro.lists.mutate import reverse
from repro.lists.validate import forest_predecessors
from .conftest import make_affine_values

SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 16, 100, 1023, 1024, 1025]

LAYOUTS = {
    "ordered": lambda n, rng: ordered_list(n),
    "reversed": lambda n, rng: reversed_list(n),
    "random": lambda n, rng: random_list(n, rng),
    "blocked": lambda n, rng: blocked_list(n, 16, rng),
}


class TestRounds:
    def test_small_cases(self):
        assert wyllie_rounds(1) == 0
        assert wyllie_rounds(2) == 0
        assert wyllie_rounds(3) == 1
        assert wyllie_rounds(5) == 2
        assert wyllie_rounds(9) == 3

    def test_power_of_two_boundaries(self):
        # window 2^k must reach n−1
        assert wyllie_rounds(1025) == 10
        assert wyllie_rounds(1026) == 11

    def test_monotone(self):
        rounds = [wyllie_rounds(n) for n in range(1, 200)]
        assert all(a <= b for a, b in zip(rounds, rounds[1:]))


class TestPredecessors:
    """The predecessor array Wyllie jumps along."""

    def test_ordered(self):
        pred = forest_predecessors(ordered_list(5).next, [0])
        assert np.array_equal(pred, [0, 0, 1, 2, 3])

    def test_head_self_loop(self, rng):
        lst = random_list(50, rng)
        pred = forest_predecessors(lst.next, [lst.head])
        assert pred[lst.head] == lst.head

    def test_inverse_of_next(self, rng):
        lst = random_list(50, rng)
        pred = forest_predecessors(lst.next, [lst.head])
        idx = np.arange(50)
        proper = lst.next != idx
        assert np.array_equal(pred[lst.next[proper]], idx[proper])


class TestAgainstSerial:
    @pytest.mark.parametrize("n", SIZES)
    def test_suffix_random(self, n, rng):
        """The suffix sums the paper's form accumulates are the
        inclusive scan of the reversed list."""
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        suffix = wyllie_list_scan(reverse(lst), inclusive=True)
        assert np.array_equal(suffix, lst.values.sum() - serial_list_scan(lst))

    @pytest.mark.parametrize("n", SIZES)
    def test_prefix_random(self, n, rng):
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        assert np.array_equal(wyllie_list_scan(lst), serial_list_scan(lst))

    @pytest.mark.parametrize("layout", [ordered_list, reversed_list])
    def test_layouts(self, layout, rng):
        lst = layout(257, values=rng.integers(-9, 9, 257))
        assert np.array_equal(wyllie_list_scan(lst), serial_list_scan(lst))

    @pytest.mark.parametrize("n", [2, 17, 300])
    def test_inclusive(self, n, rng):
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        expect = serial_list_scan(lst, inclusive=True)
        assert np.array_equal(wyllie_list_scan(lst, inclusive=True), expect)
        assert np.array_equal(list_scan(lst, inclusive=True, algorithm="wyllie"), expect)

    def test_xor(self, rng):
        lst = random_list(100, rng, values=rng.integers(0, 1 << 20, 100))
        assert np.array_equal(
            wyllie_list_scan(lst, XOR), serial_list_scan(lst, XOR)
        )

    def test_max_via_prefix(self, rng):
        lst = random_list(100, rng, values=rng.integers(-99, 99, 100))
        assert np.array_equal(
            wyllie_list_scan(lst, MAX), serial_list_scan(lst, MAX)
        )

    def test_affine_via_prefix(self, rng):
        n = 77
        lst = from_order(rng.permutation(n), make_affine_values(rng, n))
        assert np.array_equal(
            wyllie_list_scan(lst, AFFINE), serial_list_scan(lst, AFFINE)
        )

    def test_does_not_modify_input(self, small_list):
        before = small_list.next.copy()
        values = small_list.values.copy()
        wyllie_list_scan(small_list)
        wyllie_list_scan(small_list, inclusive=True)
        assert np.array_equal(small_list.next, before)
        assert np.array_equal(small_list.values, values)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("n", [1, 2, 333])
    def test_every_operator(self, layout, n, rng):
        """Integers bit for bit, for every builtin operator; float64
        within rtol 1e-9."""
        shape = LAYOUTS[layout](n, rng)

        def with_values(values):
            return LinkedList(shape.next, shape.head, values)

        for op in (SUM, PROD, MIN, MAX, XOR, AND, OR):
            lst = with_values(rng.integers(-1, 2 if op is PROD else 99, n))
            for inclusive in (False, True):
                expect = serial_list_scan(lst, op, inclusive=inclusive)
                got = wyllie_list_scan(lst, op, inclusive=inclusive)
                assert np.array_equal(got, expect), (op.name, inclusive)
        lst = with_values(make_affine_values(rng, n))
        assert np.array_equal(wyllie_list_scan(lst, AFFINE), serial_list_scan(lst, AFFINE))
        lst = with_values(rng.random(n) + 0.5)
        for op in (SUM, PROD, MIN, MAX):
            np.testing.assert_allclose(
                wyllie_list_scan(lst, op), serial_list_scan(lst, op), rtol=1e-9
            )


class TestDispatch:
    def test_auto_float_sum_does_not_cancel(self):
        """One 1e16 value among floats: a suffix form's ``total ⊖
        suffix`` would lose the small prefixes; pointer jumping along
        the predecessors folds each prefix directly."""
        n = 3000
        rng = np.random.default_rng(9)
        lst = random_list(n, rng, values=rng.random(n))
        lst.values[list_order(lst)[n // 3]] = 1e16
        expect = serial_list_scan(lst)
        np.testing.assert_allclose(wyllie_list_scan(lst, SUM), expect, rtol=1e-9)
        np.testing.assert_allclose(list_scan(lst, algorithm="wyllie"), expect, rtol=1e-9)

    def test_rank(self, rng):
        lst = random_list(300, rng)
        assert sorted(wyllie_list_rank(lst)) == list(range(300))
        assert wyllie_list_rank(lst)[lst.head] == 0

    def test_variant_is_gone(self, small_list):
        with pytest.raises(TypeError):
            list_scan(small_list, algorithm="wyllie", variant="suffix")
        with pytest.raises(TypeError):
            wyllie_list_scan(small_list, variant="prefix")


class TestOneWyllie:
    def test_every_host_path_runs_core_forest(self, monkeypatch, rng):
        """``list_scan``, the engine and the live calibration samples
        all run ``core.forest``'s pointer jumping."""
        calls = []
        real = forest_mod.wyllie_forest_scan

        def spy(*args, **kwargs):
            calls.append(args[0].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(forest_mod, "wyllie_forest_scan", spy)
        lst = random_list(1000, rng, values=rng.integers(-9, 9, 1000))
        assert np.array_equal(list_scan(lst, algorithm="wyllie"), serial_list_scan(lst))
        assert calls == [1000]
        with Engine(executor="sync", cache_capacity=0) as engine:
            assert np.array_equal(engine.scan(lst, algorithm="wyllie"), serial_list_scan(lst))
        assert calls == [1000, 1000]
        [sample] = measure_samples({"wyllie": (1024,)}, repeats=1)
        assert sample.kind == "wyllie" and calls == [1000, 1000, 1024]


class TestStats:
    def test_work_is_n_log_n(self, rng):
        n = 1024
        lst = random_list(n, rng)
        stats = ScanStats()
        wyllie_list_scan(lst, stats=stats)
        assert stats.rounds == wyllie_rounds(n)
        assert stats.element_ops == stats.rounds * n

    def test_space_accounting(self, rng):
        """Predecessors, working values, pointers and jumped pointers:
        the paper's Table 1 figure of 4n."""
        n = 128
        stats = ScanStats()
        wyllie_list_scan(random_list(n, rng), stats=stats)
        assert stats.peak_aux_words == 4 * n
