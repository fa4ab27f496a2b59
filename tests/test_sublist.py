"""Unit tests for the paper's sublist algorithm (host backend)."""

import numpy as np
import pytest

from repro.analysis.cost_model import PAPER_C90_COSTS
from repro.baselines.serial import serial_list_scan, serial_list_rank
from repro.core.operators import AFFINE, MAX, MIN, PROD, XOR
from repro.core.stats import ScanStats
from repro.core.sublist import (
    SublistConfig,
    choose_splitters,
    sublist_list_rank,
    sublist_list_scan,
)
from repro.lists.generate import (
    blocked_list,
    from_order,
    ordered_list,
    random_list,
    reversed_list,
)
from .conftest import make_affine_values

SIZES = [1, 2, 3, 4, 5, 8, 16, 100, 257, 1000, 4096, 20000]


class TestCorrectness:
    @pytest.mark.parametrize("n", SIZES)
    def test_random_lists(self, n, rng):
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        got = sublist_list_scan(lst, rng=rng)
        assert np.array_equal(got, serial_list_scan(lst)), f"n={n}"

    @pytest.mark.parametrize("layout", [ordered_list, reversed_list])
    def test_sequential_layouts(self, layout, rng):
        lst = layout(3000, values=rng.integers(-9, 9, 3000))
        assert np.array_equal(
            sublist_list_scan(lst, rng=rng), serial_list_scan(lst)
        )

    def test_blocked_layout(self, rng):
        lst = blocked_list(3000, 16, rng, values=rng.integers(-9, 9, 3000))
        assert np.array_equal(
            sublist_list_scan(lst, rng=rng), serial_list_scan(lst)
        )

    @pytest.mark.parametrize("op", [MAX, MIN, PROD, XOR], ids=lambda o: o.name)
    def test_operators(self, op, rng):
        vals = rng.integers(1, 9, 3000)
        lst = random_list(3000, rng, values=vals)
        got = sublist_list_scan(lst, op, rng=rng)
        assert np.array_equal(got, serial_list_scan(lst, op))

    def test_affine_non_commutative(self, rng):
        n = 3000
        lst = from_order(rng.permutation(n), make_affine_values(rng, n))
        got = sublist_list_scan(lst, AFFINE, rng=rng)
        assert np.array_equal(got, serial_list_scan(lst, AFFINE))

    def test_inclusive(self, rng):
        lst = random_list(2000, rng, values=rng.integers(-9, 9, 2000))
        got = sublist_list_scan(lst, inclusive=True, rng=rng)
        assert np.array_equal(got, serial_list_scan(lst, inclusive=True))

    def test_float_values(self, rng):
        lst = random_list(2000, rng, values=rng.random(2000))
        got = sublist_list_scan(lst, rng=rng)
        assert np.allclose(got, serial_list_scan(lst))

    def test_rank(self, rng):
        lst = random_list(5000, rng)
        assert np.array_equal(sublist_list_rank(lst, rng=rng), serial_list_rank(lst))

    def test_deterministic_given_seed(self, rng):
        lst = random_list(2000, rng)
        a = sublist_list_scan(lst, rng=7)
        b = sublist_list_scan(lst, rng=7)
        assert np.array_equal(a, b)


class TestRestoration:
    """The paper's RESTORE_LIST: inputs come back bit-identical."""

    @pytest.mark.parametrize("n", [5, 100, 5000])
    def test_arrays_restored(self, n, rng):
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        before_next = lst.next.copy()
        before_vals = lst.values.copy()
        sublist_list_scan(lst, rng=rng)
        assert np.array_equal(lst.next, before_next)
        assert np.array_equal(lst.values, before_vals)

    def test_restored_after_recursive_run(self, rng):
        lst = random_list(8000, rng)
        cfg = SublistConfig(m=2000, s1=2.0, serial_cutoff=32)
        before = lst.next.copy()
        sublist_list_scan(lst, config=cfg, rng=rng)
        assert np.array_equal(lst.next, before)

    def test_restored_on_error(self, rng):
        """If the operator explodes mid-run the list is still restored."""
        lst = random_list(1000, rng)
        calls = {"k": 0}

        def bomb(a, b):
            calls["k"] += 1
            if calls["k"] == 25:
                raise RuntimeError("boom")
            return np.add(a, b)

        from repro.core.operators import Operator

        op = Operator(name="bomb", combine=bomb, identity=0)
        before_next = lst.next.copy()
        before_vals = lst.values.copy()
        with pytest.raises(RuntimeError, match="boom"):
            sublist_list_scan(lst, op, config=SublistConfig(m=64, s1=4.0), rng=rng)
        assert np.array_equal(lst.next, before_next)
        assert np.array_equal(lst.values, before_vals)


class TestConfig:
    def test_explicit_m_s1(self, rng):
        lst = random_list(4000, rng, values=rng.integers(-9, 9, 4000))
        cfg = SublistConfig(m=100, s1=10.0)
        assert np.array_equal(
            sublist_list_scan(lst, config=cfg, rng=rng), serial_list_scan(lst)
        )

    @pytest.mark.parametrize("m", [2, 3, 64, 1999])
    def test_extreme_m(self, m, rng):
        lst = random_list(4000, rng, values=rng.integers(-9, 9, 4000))
        cfg = SublistConfig(m=m, s1=5.0)
        assert np.array_equal(
            sublist_list_scan(lst, config=cfg, rng=rng), serial_list_scan(lst)
        )

    def test_m_larger_than_n_clamped(self, rng):
        lst = random_list(600, rng)
        cfg = SublistConfig(m=10_000, s1=1.0, serial_cutoff=8)
        assert np.array_equal(
            sublist_list_scan(lst, config=cfg, rng=rng), serial_list_scan(lst)
        )

    def test_wyllie_phase2_path(self, rng):
        lst = random_list(20_000, rng, values=rng.integers(-9, 9, 20_000))
        cfg = SublistConfig(m=2000, s1=4.0, serial_cutoff=64)
        got = sublist_list_scan(lst, config=cfg, rng=rng)
        assert np.array_equal(got, serial_list_scan(lst))

    def test_short_vector_fallback_is_gone(self):
        # Phase 1 runs every straggler in lock step; early_reconnect is
        # the Section 6 answer to them
        with pytest.raises(TypeError):
            SublistConfig(short_vector_fallback=8)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("splitters", "spaced"),
            ("wyllie_cutoff", 65_536),
            ("schedule_guard", "monotonic_gaps"),
            ("tail_growth", 1.5),
            ("costs", PAPER_C90_COSTS),
            ("max_depth", 8),
        ],
    )
    def test_removed_fields_are_gone(self, name, value):
        # the host always runs spaced splitters and a Wyllie Phase 2 on
        # the C-90 table's schedule; SimSublistConfig keeps its own knobs
        with pytest.raises(TypeError):
            SublistConfig(**{name: value})

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError, match="m"):
            SublistConfig(m=1)

    def test_rejects_bad_s1(self):
        with pytest.raises(ValueError):
            SublistConfig(s1=0.0)


class TestChooseSplitters:
    def test_spaced_count(self, rng):
        pos = choose_splitters(1000, 11, tail=999, strategy="spaced", rng=rng)
        assert pos.size == 10

    def test_spaced_excludes_tail(self, rng):
        # tail right on a spaced position
        pos = choose_splitters(1000, 11, tail=100, strategy="spaced", rng=rng)
        assert 100 not in pos

    def test_random_distinct(self, rng):
        pos = choose_splitters(100, 50, tail=7, strategy="random", rng=rng)
        assert len(np.unique(pos)) == pos.size == 49
        assert 7 not in pos

    def test_random_covers_full_range(self, rng):
        pos = choose_splitters(10, 10, tail=3, strategy="random", rng=rng)
        assert set(pos) == set(range(10)) - {3}

    def test_competition_drops_duplicates(self, rng):
        pos = choose_splitters(
            50, 40, tail=0, strategy="random_competition", rng=rng
        )
        assert len(np.unique(pos)) == pos.size
        assert 0 not in pos
        assert pos.size <= 39

    @pytest.mark.parametrize("strategy", ["spaced", "random", "random_competition"])
    def test_too_many_sublists_clamps(self, rng, strategy):
        # m > n: clamp to the n - 1 available non-tail positions instead
        # of raising / returning empty sublists
        pos = choose_splitters(5, 10, tail=0, strategy=strategy, rng=rng)
        assert 1 <= pos.size <= 4
        assert len(np.unique(pos)) == pos.size
        assert 0 not in pos
        assert np.all((pos > 0) & (pos < 5))

    @pytest.mark.parametrize("strategy", ["spaced", "random", "random_competition"])
    def test_single_node_list_no_splitters(self, rng, strategy):
        pos = choose_splitters(1, 8, tail=0, strategy=strategy, rng=rng)
        assert pos.size == 0

    @pytest.mark.parametrize("strategy", ["spaced", "random", "random_competition"])
    def test_two_node_list_single_splitter(self, rng, strategy):
        pos = choose_splitters(2, 16, tail=1, strategy=strategy, rng=rng)
        assert pos.tolist() == [0]

    def test_zero_splits(self, rng):
        pos = choose_splitters(10, 1, tail=0, strategy="spaced", rng=rng)
        assert pos.size == 0

    def test_random_single_tail_stream_pinned(self):
        # the one-tail draw is part of the reproducible contract: the
        # same generator state must keep giving the same positions
        pos = choose_splitters(1000, 11, 500, "random", np.random.default_rng(2024))
        assert pos.tolist() == [91, 212, 239, 307, 315, 670, 798, 906, 914, 995]

    @pytest.mark.parametrize("strategy", ["spaced", "random", "random_competition"])
    @pytest.mark.parametrize("m", [8, 40, 1000])
    def test_forest_tails(self, rng, strategy, m):
        n = 60
        tails = np.array([0, 1, 7, 8, 30, 59])
        pos = choose_splitters(n, m, tails, strategy=strategy, rng=rng)
        assert pos.size >= 1
        assert np.array_equal(pos, np.unique(pos))  # distinct and sorted
        assert not np.isin(pos, tails).any()
        assert np.all((pos >= 0) & (pos < n))
        assert pos.size <= min(m, n) - tails.size
        if strategy == "random":
            assert pos.size == min(m, n) - tails.size


class TestStats:
    def test_work_efficient(self, rng):
        """Total element operations stay within a small factor of n."""
        n = 100_000
        lst = random_list(n, rng)
        stats = ScanStats()
        sublist_list_scan(lst, rng=rng, stats=stats)
        assert stats.work_per_element(n) < 4.0  # paper: O(n), ≈2n + tail chase

    def test_phases_recorded(self, rng):
        stats = ScanStats()
        sublist_list_scan(random_list(10_000, rng), rng=rng, stats=stats)
        assert "phase1" in stats.phases
        assert "phase3" in stats.phases
        assert stats.packs > 0

    def test_phase3_work_at_least_n(self, rng):
        n = 50_000
        stats = ScanStats()
        sublist_list_scan(random_list(n, rng), rng=rng, stats=stats)
        assert stats.phases["phase3"] >= n
