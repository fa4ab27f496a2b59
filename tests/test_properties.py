"""Property-based tests (hypothesis) on the library's core invariants.

These encode the DESIGN.md invariants: every algorithm ≡ the serial
reference on arbitrary valid lists / values / operators; inputs are
restored bit-identically; ranks are permutations; schedules are
strictly increasing; the distribution functions are proper tails.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.anderson_miller import anderson_miller_list_scan
from repro.baselines.random_mate import random_mate_list_scan
from repro.baselines.serial import serial_list_rank, serial_list_scan
from repro.baselines.wyllie import wyllie_list_scan
from repro.core.operators import AFFINE, MAX, MIN, SUM, XOR
from repro.core.schedule import integer_gaps, optimal_schedule
from repro.core.sublist import SublistConfig, sublist_list_scan
from repro.lists.convert import rank_to_order, reorder_by_rank
from repro.lists.generate import from_order
from repro.lists.validate import validate_list_strict

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def linked_lists(draw, max_n=200, value_low=-50, value_high=50):
    """A random valid linked list with random int64 values."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    values = draw(
        st.lists(
            st.integers(min_value=value_low, max_value=value_high),
            min_size=n,
            max_size=n,
        )
    )
    return from_order(order, np.asarray(values, dtype=np.int64))


@st.composite
def affine_lists(draw, max_n=150):
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    vals = np.stack(
        [rng.integers(1, 3, n), rng.integers(-5, 6, n)], axis=1
    ).astype(np.int64)
    return from_order(order, vals)


SCAN_OPS = [SUM, MAX, MIN, XOR]


class TestAlgorithmEquivalence:
    @settings(max_examples=60, **COMMON)
    @given(lst=linked_lists(), seed=st.integers(0, 1000))
    def test_sublist_equals_serial(self, lst, seed):
        cfg = SublistConfig(serial_cutoff=4)  # force the parallel path
        got = sublist_list_scan(lst, config=cfg, rng=seed)
        assert np.array_equal(got, serial_list_scan(lst))

    @settings(max_examples=60, **COMMON)
    @given(lst=linked_lists())
    def test_wyllie_equals_serial(self, lst):
        for op in SCAN_OPS:
            assert np.array_equal(wyllie_list_scan(lst, op), serial_list_scan(lst, op)), op.name

    @settings(max_examples=40, **COMMON)
    @given(lst=linked_lists(), seed=st.integers(0, 1000))
    def test_random_mate_equals_serial(self, lst, seed):
        got = random_mate_list_scan(lst, rng=seed)
        assert np.array_equal(got, serial_list_scan(lst))

    @settings(max_examples=40, **COMMON)
    @given(lst=linked_lists(), seed=st.integers(0, 1000))
    def test_anderson_miller_equals_serial(self, lst, seed):
        got = anderson_miller_list_scan(lst, rng=seed)
        assert np.array_equal(got, serial_list_scan(lst))

    @settings(max_examples=30, **COMMON)
    @given(lst=linked_lists(value_low=0, value_high=1 << 20), seed=st.integers(0, 99))
    def test_operators_agree(self, lst, seed):
        for op in SCAN_OPS:
            expect = serial_list_scan(lst, op)
            cfg = SublistConfig(serial_cutoff=4)
            assert np.array_equal(
                sublist_list_scan(lst, op, config=cfg, rng=seed), expect
            ), op.name

    @settings(max_examples=30, **COMMON)
    @given(lst=affine_lists(), seed=st.integers(0, 99))
    def test_non_commutative_operator(self, lst, seed):
        expect = serial_list_scan(lst, AFFINE)
        cfg = SublistConfig(serial_cutoff=4)
        assert np.array_equal(
            sublist_list_scan(lst, AFFINE, config=cfg, rng=seed), expect
        )
        assert np.array_equal(wyllie_list_scan(lst, AFFINE), expect)
        assert np.array_equal(random_mate_list_scan(lst, AFFINE, rng=seed), expect)


class TestStructuralInvariants:
    @settings(max_examples=60, **COMMON)
    @given(lst=linked_lists(), seed=st.integers(0, 1000))
    def test_input_restored(self, lst, seed):
        before_next = lst.next.copy()
        before_vals = lst.values.copy()
        sublist_list_scan(lst, config=SublistConfig(serial_cutoff=4), rng=seed)
        assert np.array_equal(lst.next, before_next)
        assert np.array_equal(lst.values, before_vals)

    @settings(max_examples=60, **COMMON)
    @given(lst=linked_lists())
    def test_rank_is_permutation(self, lst):
        rank = serial_list_rank(lst)
        assert sorted(rank) == list(range(lst.n))

    @settings(max_examples=60, **COMMON)
    @given(lst=linked_lists())
    def test_rank_respects_links(self, lst):
        """Following a proper link increments the rank by exactly 1."""
        rank = serial_list_rank(lst)
        idx = np.arange(lst.n)
        proper = lst.next != idx
        assert np.all(rank[lst.next[proper]] == rank[idx[proper]] + 1)

    @settings(max_examples=40, **COMMON)
    @given(lst=linked_lists())
    def test_reorder_roundtrip(self, lst):
        rank = serial_list_rank(lst)
        order = rank_to_order(rank)
        assert np.array_equal(rank[order], np.arange(lst.n))
        payload = lst.values
        in_order = reorder_by_rank(payload, rank)
        assert np.array_equal(in_order[rank], payload)

    @settings(max_examples=40, **COMMON)
    @given(lst=linked_lists())
    def test_generated_lists_valid(self, lst):
        validate_list_strict(lst)

    @settings(max_examples=40, **COMMON)
    @given(lst=linked_lists())
    def test_inclusive_exclusive_relation(self, lst):
        excl = serial_list_scan(lst)
        incl = serial_list_scan(lst, inclusive=True)
        assert np.array_equal(incl, excl + lst.values)

    @settings(max_examples=40, **COMMON)
    @given(lst=linked_lists())
    def test_scan_telescopes(self, lst):
        """scan[next[v]] − scan[v] == value[v] along proper links."""
        out = serial_list_scan(lst)
        idx = np.arange(lst.n)
        proper = lst.next != idx
        assert np.all(
            out[lst.next[proper]] - out[idx[proper]] == lst.values[idx[proper]]
        )


class TestScheduleProperties:
    @settings(max_examples=60, **COMMON)
    @given(
        n=st.integers(1000, 10**7),
        m_frac=st.floats(0.001, 0.4),
        s1=st.floats(0.5, 500.0),
    )
    def test_schedule_strictly_increasing(self, n, m_frac, s1):
        m = max(2, int(n * m_frac))
        sch = optimal_schedule(n, m, s1)
        assert np.all(np.diff(sch) > 0)
        assert sch[0] == pytest.approx(s1)

    @settings(max_examples=60, **COMMON)
    @given(
        points=st.lists(
            st.floats(0.3, 1e5), min_size=1, max_size=30
        )
    )
    def test_integer_gaps_properties(self, points):
        pts = np.sort(np.asarray(points))
        gaps = integer_gaps(pts)
        assert np.all(gaps >= 1)
        assert gaps.sum() >= 1
