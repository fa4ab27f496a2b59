"""Unit tests for the serial reference algorithm."""

import numpy as np
import pytest

import repro.baselines.serial as serial_module
from repro.baselines.serial import serial_list_rank, serial_list_scan
from repro.core.forest import serial_forest_scan
from repro.core.list_scan import list_scan
from repro.core.operators import AFFINE, MAX
from repro.lists.generate import LinkedList, from_order, list_order, ordered_list, random_list
from .conftest import make_affine_values


class TestExclusiveScan:
    def test_ordered_sums(self):
        lst = ordered_list(5, values=np.array([1, 2, 3, 4, 5]))
        out = serial_list_scan(lst)
        assert np.array_equal(out, [0, 1, 3, 6, 10])

    def test_head_gets_identity(self, small_list):
        out = serial_list_scan(small_list)
        assert out[small_list.head] == 0

    def test_tail_gets_written(self, small_list):
        # the tail's scan equals total minus its own value
        out = serial_list_scan(small_list)
        total = small_list.values.sum()
        tail = small_list.tail
        assert out[tail] == total - small_list.values[tail]

    def test_singleton(self):
        lst = from_order(np.array([0]), values=np.array([42]))
        assert np.array_equal(serial_list_scan(lst), [0])

    def test_max_operator(self, rng):
        order = rng.permutation(20)
        vals = rng.integers(-100, 100, 20)
        lst = from_order(order, vals)
        out = serial_list_scan(lst, MAX)
        running = MAX.identity_for(vals.dtype)
        for node in order:
            assert out[node] == running
            running = max(running, vals[node])

    def test_does_not_modify_input(self, small_list):
        before_next = small_list.next.copy()
        before_vals = small_list.values.copy()
        serial_list_scan(small_list)
        assert np.array_equal(small_list.next, before_next)
        assert np.array_equal(small_list.values, before_vals)

    def test_out_parameter(self, small_list):
        out = np.empty(small_list.n, dtype=small_list.values.dtype)
        ret = serial_list_scan(small_list, out=out)
        assert ret is out


class TestInclusiveScan:
    def test_ordered_sums(self):
        lst = ordered_list(4, values=np.array([1, 2, 3, 4]))
        out = serial_list_scan(lst, inclusive=True)
        assert np.array_equal(out, [1, 3, 6, 10])

    def test_inclusive_is_exclusive_plus_value(self, small_list):
        excl = serial_list_scan(small_list)
        incl = serial_list_scan(small_list, inclusive=True)
        assert np.array_equal(incl, excl + small_list.values)


class TestRank:
    def test_ordered(self):
        assert np.array_equal(serial_list_rank(ordered_list(6)), np.arange(6))

    def test_random_is_permutation(self, rng):
        lst = random_list(500, rng)
        rank = serial_list_rank(lst)
        assert sorted(rank) == list(range(500))

    def test_rank_equals_scan_of_ones(self, rng):
        lst = random_list(200, rng)
        ones = LinkedList(lst.next, lst.head, np.ones(200, dtype=np.int64))
        assert np.array_equal(serial_list_rank(lst), serial_list_scan(ones))

    def test_head_rank_zero(self, rng):
        lst = random_list(64, rng)
        assert serial_list_rank(lst)[lst.head] == 0

    def test_tail_rank_n_minus_one(self, rng):
        lst = random_list(64, rng)
        assert serial_list_rank(lst)[lst.tail] == 63


class TestAffine:
    def test_affine_scan(self, rng):
        n = 50
        order = rng.permutation(n)
        vals = make_affine_values(rng, n)
        lst = from_order(order, vals)
        out = serial_list_scan(lst, AFFINE)
        # manual composition along the order
        acc = np.array([1, 0], dtype=np.int64)
        for node in order:
            assert np.array_equal(out[node], acc)
            acc = AFFINE.combine(acc, vals[node])


class TestOneSerialLoop:
    """The serial scan is ``core.forest``'s one serial loop on one list."""

    def test_segment_scan_is_gone(self):
        with pytest.raises(ImportError):
            from repro.baselines.serial import serial_scan_segment  # noqa: F401

    @pytest.mark.parametrize("inclusive", [False, True])
    def test_list_scan_runs_serial_forest_scan(self, rng, monkeypatch, inclusive):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[2].tolist())
            return serial_forest_scan(*args, **kwargs)

        monkeypatch.setattr(serial_module, "serial_forest_scan", spy)
        lst = random_list(40, rng, values=rng.integers(-9, 9, 40))
        out = list_scan(lst, algorithm="serial", inclusive=inclusive)
        assert calls == [[lst.head]]
        order = list_order(lst)
        running = np.cumsum(lst.values[order])
        expect = running if inclusive else running - lst.values[order]
        assert np.array_equal(out[order], expect)
