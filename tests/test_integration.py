"""Cross-module integration tests: full pipelines chaining several
subsystems, plus dtype coverage."""

import numpy as np
import pytest

from repro import (
    AFFINE,
    LinkedList,
    ScanStats,
    SublistConfig,
    list_rank,
    list_scan,
    partition_list,
    random_list,
    random_parent_tree,
    scan_via_reorder,
    serial_list_scan,
    sublist_scan_sim,
    validate_list_strict,
    wyllie_scan_sim,
)
from repro.apps.load_balance import partition_summary
from repro.core.segmented import segmented_list_scan
from repro.lists.generate import from_order, list_order
from repro.lists.mutate import concatenate, split_after


class TestFullPipelines:
    def test_tree_workload_through_simulator(self, rng):
        """Euler-tour list of a random tree, scanned on the simulated
        C-90 — irregular real-application input for the machine model."""
        from repro.apps.euler_tour import build_euler_tour

        parent = random_parent_tree(5000, rng)
        et = build_euler_tour(parent)
        tour = LinkedList(
            et.tour.next, et.tour.head, np.ones(et.tour.n, dtype=np.int64)
        )
        res = sublist_scan_sim(tour, rng=rng)
        assert np.array_equal(res.out, serial_list_scan(tour))
        res_w = wyllie_scan_sim(tour)
        assert np.array_equal(res_w.out, serial_list_scan(tour))

    def test_rank_then_balance_then_verify(self, rng):
        """Ranking feeds partitioning; chunk boundaries respect both
        contiguity and weight balance."""
        n = 30_000
        lst = random_list(n, rng, values=rng.integers(1, 50, n))
        owner = partition_list(lst, 8, rng=rng)
        summary = partition_summary(lst, owner, 8)
        assert summary["imbalance"] < 1.02
        order = list_order(lst)
        assert np.all(np.diff(owner[order]) >= 0)

    def test_split_scan_pieces_equals_segmented(self, rng):
        """Splitting the list and scanning each piece separately equals
        the segmented scan of the intact list."""
        n = 4000
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        order = list_order(lst)
        cut_nodes = order[[999, 1999, 2999]]
        pieces = split_after(lst, cut_nodes)
        seg_heads = order[[1000, 2000, 3000]]
        seg = segmented_list_scan(lst, seg_heads, rng=rng)
        for piece, ids in pieces:
            piece_scan = serial_list_scan(piece)
            assert np.array_equal(piece_scan, seg[ids])

    def test_concat_scan_equals_chained_scans(self, rng):
        a = random_list(500, rng, values=rng.integers(-9, 9, 500))
        b = random_list(300, rng, values=rng.integers(-9, 9, 300))
        combined, offsets = concatenate([a, b])
        out = list_scan(combined, rng=rng)
        order_a, order_b = list_order(a), list_order(b)
        # piece a is scanned as usual (compare along list order)
        assert np.array_equal(
            out[order_a], serial_list_scan(a)[order_a]
        )
        # piece b continues with a's total as carry
        carry = a.values.sum()
        assert np.array_equal(
            out[order_b + offsets[1]], serial_list_scan(b)[order_b] + carry
        )

    def test_reorder_roundtrip_through_all_algorithms(self, rng):
        n = 2000
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        expect = serial_list_scan(lst)
        for algorithm in ("wyllie", "sublist", "early_reconnect"):
            got = scan_via_reorder(lst, algorithm=algorithm, rng=rng)
            assert np.array_equal(got, expect), algorithm

    def test_stats_flow_through_dispatch(self, rng):
        lst = random_list(20_000, rng)
        stats = ScanStats()
        list_rank(lst, stats=stats, rng=rng)
        assert stats.element_ops > 20_000
        assert stats.packs > 0


class TestDtypeCoverage:
    @pytest.mark.parametrize(
        "dtype", [np.int32, np.int64, np.float32, np.float64]
    )
    def test_sublist_scan_dtypes(self, dtype, rng):
        n = 3000
        if np.issubdtype(dtype, np.integer):
            vals = rng.integers(-9, 9, n).astype(dtype)
        else:
            vals = rng.random(n).astype(dtype)
        lst = random_list(n, rng, values=vals)
        got = list_scan(lst, rng=rng)
        expect = serial_list_scan(lst)
        if np.issubdtype(dtype, np.integer):
            assert np.array_equal(got, expect)
        else:
            assert np.allclose(got, expect, rtol=1e-5)
        assert got.dtype == dtype

    def test_affine_float(self, rng):
        n = 2000
        vals = np.stack(
            [rng.uniform(0.9, 1.1, n), rng.uniform(-0.5, 0.5, n)], axis=1
        )
        lst = from_order(rng.permutation(n), vals)
        got = list_scan(lst, AFFINE, rng=rng)
        assert np.allclose(got, serial_list_scan(lst, AFFINE), rtol=1e-9)

    def test_int32_overflow_not_masked(self, rng):
        """Scans preserve the input dtype; the library does not silently
        upcast (documented behaviour)."""
        n = 100
        lst = random_list(n, rng, values=np.ones(n, dtype=np.int32))
        got = list_scan(lst, rng=rng)
        assert got.dtype == np.int32


class TestConfigInteractions:
    def test_tiny_lists_each_algorithm(self, rng):
        for n in (1, 2, 3):
            lst = random_list(n, rng, values=rng.integers(-5, 5, n))
            expect = serial_list_scan(lst)
            for algorithm in (
                "sublist",
                "wyllie",
                "random_mate",
                "anderson_miller",
                "early_reconnect",
            ):
                got = list_scan(lst, algorithm=algorithm, rng=rng)
                assert np.array_equal(got, expect), (n, algorithm)

    def test_validate_then_scan(self, rng):
        lst = random_list(1000, rng)
        validate_list_strict(lst)
        ranks = list_rank(lst, rng=rng)
        assert sorted(ranks) == list(range(1000))

    def test_simulator_and_host_agree(self, rng):
        """The cycle-accounted backend computes the same values as the
        host backend (they share nothing but the algorithm)."""
        n = 30_000
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        host = list_scan(lst, config=SublistConfig(m=500, s1=10.0), rng=0)
        sim = sublist_scan_sim(lst, rng=0)
        assert np.array_equal(host, sim.out)
