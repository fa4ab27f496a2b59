"""Unit tests for Wyllie's pointer-jumping algorithm."""

import numpy as np
import pytest

from repro.baselines.serial import serial_list_scan
from repro.baselines.wyllie import (
    build_predecessors,
    wyllie_list_rank,
    wyllie_list_scan,
    wyllie_prefix,
    wyllie_rounds,
    wyllie_suffix,
)
from repro.core.list_scan import list_scan
from repro.core.operators import AFFINE, MAX, SUM, XOR
from repro.core.stats import ScanStats
from repro.lists.generate import (
    from_order,
    list_order,
    ordered_list,
    random_list,
    reversed_list,
)
from .conftest import make_affine_values

SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 16, 100, 1023, 1024, 1025]


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
    def test_ordered(self):
        pred = build_predecessors(ordered_list(5))
        assert np.array_equal(pred, [0, 0, 1, 2, 3])

    def test_head_self_loop(self, rng):
        lst = random_list(50, rng)
        pred = build_predecessors(lst)
        assert pred[lst.head] == lst.head

    def test_inverse_of_next(self, rng):
        lst = random_list(50, rng)
        pred = build_predecessors(lst)
        idx = np.arange(50)
        proper = lst.next != idx
        assert np.array_equal(pred[lst.next[proper]], idx[proper])


class TestAgainstSerial:
    @pytest.mark.parametrize("n", SIZES)
    def test_suffix_random(self, n, rng):
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        assert np.array_equal(wyllie_suffix(lst), serial_list_scan(lst))

    @pytest.mark.parametrize("n", SIZES)
    def test_prefix_random(self, n, rng):
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        assert np.array_equal(wyllie_prefix(lst), serial_list_scan(lst))

    @pytest.mark.parametrize("layout", [ordered_list, reversed_list])
    def test_layouts(self, layout, rng):
        lst = layout(257, values=rng.integers(-9, 9, 257))
        assert np.array_equal(wyllie_suffix(lst), serial_list_scan(lst))

    @pytest.mark.parametrize("n", [2, 17, 300])
    def test_inclusive(self, n, rng):
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        expect = serial_list_scan(lst, inclusive=True)
        assert np.array_equal(wyllie_suffix(lst, inclusive=True), expect)
        assert np.array_equal(wyllie_prefix(lst, inclusive=True), expect)

    def test_xor(self, rng):
        lst = random_list(100, rng, values=rng.integers(0, 1 << 20, 100))
        assert np.array_equal(
            wyllie_suffix(lst, XOR), serial_list_scan(lst, XOR)
        )

    def test_max_via_prefix(self, rng):
        lst = random_list(100, rng, values=rng.integers(-99, 99, 100))
        assert np.array_equal(
            wyllie_prefix(lst, MAX), serial_list_scan(lst, MAX)
        )

    def test_affine_via_prefix(self, rng):
        n = 77
        lst = from_order(rng.permutation(n), make_affine_values(rng, n))
        assert np.array_equal(
            wyllie_prefix(lst, AFFINE), serial_list_scan(lst, AFFINE)
        )

    def test_does_not_modify_input(self, small_list):
        before = small_list.next.copy()
        wyllie_suffix(small_list)
        wyllie_prefix(small_list)
        assert np.array_equal(small_list.next, before)


class TestDispatch:
    def test_auto_picks_suffix_for_sum(self, small_list):
        got = wyllie_list_scan(small_list, SUM, variant="auto")
        assert np.array_equal(got, serial_list_scan(small_list))

    def test_auto_float_sum_does_not_cancel(self):
        """One 1e16 value among floats: ``total ⊖ suffix`` would lose the
        small prefixes, so "auto" takes the prefix form for floats."""
        n = 3000
        rng = np.random.default_rng(9)
        lst = random_list(n, rng, values=rng.random(n))
        lst.values[list_order(lst)[n // 3]] = 1e16
        expect = serial_list_scan(lst)
        np.testing.assert_allclose(wyllie_list_scan(lst, SUM), expect, rtol=1e-9)
        np.testing.assert_allclose(list_scan(lst, algorithm="wyllie"), expect, rtol=1e-9)

    def test_auto_picks_prefix_for_max(self, small_list):
        got = wyllie_list_scan(small_list, MAX, variant="auto")
        assert np.array_equal(got, serial_list_scan(small_list, MAX))

    def test_suffix_rejects_non_invertible(self, small_list):
        with pytest.raises(ValueError, match="invertible"):
            wyllie_suffix(small_list, MAX)

    def test_unknown_variant(self, small_list):
        with pytest.raises(ValueError, match="variant"):
            wyllie_list_scan(small_list, variant="bogus")

    def test_rank(self, rng):
        lst = random_list(300, rng)
        assert sorted(wyllie_list_rank(lst)) == list(range(300))
        assert wyllie_list_rank(lst)[lst.head] == 0


class TestStats:
    def test_work_is_n_log_n(self, rng):
        n = 1024
        lst = random_list(n, rng)
        stats = ScanStats()
        wyllie_suffix(lst, stats=stats)
        assert stats.rounds == wyllie_rounds(n)
        assert stats.element_ops == stats.rounds * n

    def test_space_accounting(self, rng):
        n = 128
        stats = ScanStats()
        wyllie_suffix(random_list(n, rng), stats=stats)
        assert stats.peak_aux_words == 2 * n

    def test_prefix_space_higher(self, rng):
        n = 128
        s1, s2 = ScanStats(), ScanStats()
        wyllie_suffix(random_list(n, rng), stats=s1)
        wyllie_prefix(random_list(n, rng), stats=s2)
        assert s2.peak_aux_words > s1.peak_aux_words
