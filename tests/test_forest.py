"""Unit tests for the forest-scan primitive."""

import numpy as np
import pytest

from repro.baselines.serial import serial_list_scan
from repro.core.forest import (
    Forest,
    SublistConfig,
    forest_list_scan,
    forest_scan,
    forest_tails,
    serial_forest_scan,
    wyllie_forest_scan,
)
from repro.core.operators import AFFINE, MAX, SUM
from repro.core.stats import ScanStats
from repro.lists.generate import INDEX_DTYPE, random_list
from repro.lists.validate import ListStructureError

#: Small lists still run the three phases, not the serial base case.
SMALL = SublistConfig(serial_cutoff=8)


def make_forest(sizes, rng):
    """Disjoint chains over one shared node array, random layout."""
    total = int(sum(sizes))
    perm = rng.permutation(total)
    nxt = np.empty(total, dtype=INDEX_DTYPE)
    heads = []
    pos = 0
    for s in sizes:
        seg = perm[pos : pos + s]
        nxt[seg[:-1]] = seg[1:]
        nxt[seg[-1]] = seg[-1]
        heads.append(seg[0])
        pos += s
    return nxt, np.asarray(heads, dtype=INDEX_DTYPE)


@pytest.fixture
def forest5(rng):
    nxt, heads = make_forest([100, 3, 50, 1, 200], rng)
    values = rng.integers(-9, 9, nxt.shape[0])
    return nxt, heads, values


class TestForestTails:
    def test_tails_are_self_loops(self, forest5):
        nxt, heads, _ = forest5
        tails = forest_tails(nxt, heads)
        assert np.all(nxt[tails] == tails)

    def test_one_tail_per_list(self, forest5):
        nxt, heads, _ = forest5
        tails = forest_tails(nxt, heads)
        assert len(np.unique(tails)) == heads.size


class TestSerialForestScan:
    def test_each_list_scanned_independently(self, forest5):
        nxt, heads, values = forest5
        out = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, SUM, None, out)
        for h in heads:
            assert out[h] == 0

    def test_carries_seed(self, forest5, rng):
        nxt, heads, values = forest5
        carries = rng.integers(-100, 100, heads.size)
        out = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, SUM, carries, out)
        assert np.array_equal(out[heads], carries)


class TestWyllieForestScan:
    @pytest.mark.parametrize("sizes", [[1], [1, 1, 1], [5, 7], [64, 1, 33, 128]])
    def test_matches_serial(self, sizes, rng):
        nxt, heads = make_forest(sizes, rng)
        values = rng.integers(-9, 9, nxt.shape[0])
        ref = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, SUM, None, ref)
        got = np.empty_like(values)
        wyllie_forest_scan(nxt, values, heads, SUM, None, got)
        assert np.array_equal(got, ref)

    def test_with_carries(self, forest5, rng):
        nxt, heads, values = forest5
        carries = rng.integers(-50, 50, heads.size)
        ref = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, SUM, carries, ref)
        got = np.empty_like(values)
        wyllie_forest_scan(nxt, values, heads, SUM, carries, got)
        assert np.array_equal(got, ref)

    def test_affine(self, rng):
        nxt, heads = make_forest([40, 17, 90], rng)
        n = nxt.shape[0]
        values = np.stack(
            [rng.integers(1, 3, n), rng.integers(-4, 4, n)], axis=1
        ).astype(np.int64)
        ref = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, AFFINE, None, ref)
        got = np.empty_like(values)
        wyllie_forest_scan(nxt, values, heads, AFFINE, None, got)
        assert np.array_equal(got, ref)


class TestWyllieRounds:
    """Pointer jumping stops once every pointer is home, so a forest
    takes its longest chain's rounds, never more than one n-node list."""

    def rounds(self, nxt, values, heads):
        stats = ScanStats()
        got = np.empty_like(values)
        wyllie_forest_scan(nxt, values, heads, SUM, None, got, stats=stats)
        ref = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, SUM, None, ref)
        assert np.array_equal(got, ref)
        return stats.rounds

    def test_fused_lists_take_their_longest_chains_rounds(self, rng):
        # 16 lists of 1,024 nodes: ⌈log₂ 1,023⌉ = 10 rounds, not the
        # ⌈log₂ 16,383⌉ = 14 the whole forest would take
        nxt, heads = make_forest([1024] * 16, rng)
        values = rng.integers(-9, 9, nxt.shape[0])
        assert self.rounds(nxt, values, heads) <= 11

    @pytest.mark.parametrize("n", [3, 4, 5, 17, 1000, 1025, 4096])
    def test_one_list_takes_log2_n_minus_1_rounds(self, n, rng):
        nxt, heads = make_forest([n], rng)
        values = rng.integers(-9, 9, n)
        assert self.rounds(nxt, values, heads) == int(np.ceil(np.log2(n - 1)))

    def test_a_power_of_two_cycle_that_stands_still_is_refused(self):
        # two 2-node lists beside a 4-cycle: after two rounds every
        # pointer of the cycle is back on its own node, so the
        # convergence test passes and stops the rounds; the head check
        # after them refuses the cycle
        nxt = np.asarray([1, 1, 3, 3, 5, 6, 7, 4], dtype=INDEX_DTYPE)
        values = np.ones(8, dtype=np.int64)
        stats = ScanStats()
        with pytest.raises(ListStructureError, match="did not converge"):
            wyllie_forest_scan(nxt, values, [0, 2], SUM, None, np.empty_like(values), stats)
        assert stats.rounds == 2


class TestMembers:
    """A forest whose lists keep their own node arrays scans like the
    same lists concatenated into one."""

    @pytest.mark.parametrize("inclusive", [False, True])
    def test_members_match_one_node_array(self, inclusive, rng):
        lists = [
            random_list(n, rng, values=rng.integers(-9, 9, n))
            for n in (1, 2, 300, 40, 5000, 7, 1000)
        ]
        forest = Forest.of_lists(lists)
        outs = [np.empty_like(lst.values) for lst in lists]
        forest_scan(forest, outs, SUM, inclusive=inclusive, config=SMALL, rng=0)
        for lst, out in zip(lists, outs):
            assert np.array_equal(out, serial_list_scan(lst, SUM, inclusive=inclusive))
        nxt, values = forest.contiguous()
        whole = forest_list_scan(
            nxt, values, forest.heads, SUM, inclusive=inclusive, config=SMALL, rng=0
        )
        assert np.array_equal(np.concatenate(outs), whole)

    def test_members_are_only_read(self, rng):
        lists = [random_list(n, rng, values=rng.integers(-9, 9, n)) for n in (50, 60)]
        for lst in lists:
            lst.next.flags.writeable = False
            lst.values.flags.writeable = False
        outs = [np.empty_like(lst.values) for lst in lists]
        forest_scan(Forest.of_lists(lists), outs, SUM, config=SMALL, rng=0)
        for lst, out in zip(lists, outs):
            assert np.array_equal(out, serial_list_scan(lst, SUM))

    def test_a_successor_into_the_next_member_is_refused(self, rng):
        # offset into one node array, a's tail pointing one past its end
        # would be b's head: two bad lists joining into a good forest
        a = random_list(40, rng)
        a.next[a.tail] = 40
        b = random_list(40, rng)
        forest = Forest.of_lists([a, b])
        outs = [np.empty(40, dtype=np.int64) for _ in range(2)]
        with pytest.raises(ListStructureError, match=r"next\[\d+\] = 40 is out of range"):
            forest_scan(forest, outs, SUM, config=SMALL, rng=0)
        with pytest.raises(ListStructureError, match="out of range"):
            forest.contiguous()



class TestDirectScan:
    """A forest too small to cut is scanned directly with Wyllie."""

    def test_members_with_carries(self, rng):
        # several members, each its own node array, seeded per list:
        # what early_reconnect's small straggler rescans hand over
        lists = [random_list(n, rng, values=rng.integers(-9, 9, n)) for n in (1, 30, 7, 90)]
        carries = rng.integers(-50, 50, len(lists))
        outs = [np.empty_like(lst.values) for lst in lists]
        stats = ScanStats()
        forest_scan(Forest.of_lists(lists), outs, SUM, carries=carries, rng=0, stats=stats)
        assert stats.packs == 0 and stats.rounds > 0  # pointer jumping, no sublists
        for lst, carry, out in zip(lists, carries, outs):
            assert np.array_equal(out, serial_list_scan(lst) + carry)

    def test_traced_as_wyllie_scan(self, rng):
        from repro.trace import Tracer

        nxt, heads = make_forest([40, 17, 90], rng)
        values = rng.integers(-9, 9, nxt.shape[0])
        tracer = Tracer()
        got = forest_list_scan(nxt, values, heads, SUM, trace=tracer)
        (root,) = tracer.roots
        assert root.name == "wyllie_scan" and root.attrs["n_lists"] == 3
        ref = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, SUM, None, ref)
        assert np.array_equal(got, ref)
class TestForestListScan:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_forests(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(1, 500)) for _ in range(int(rng.integers(1, 9)))]
        nxt, heads = make_forest(sizes, rng)
        values = rng.integers(-9, 9, nxt.shape[0])
        ref = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, SUM, None, ref)
        cfg = SublistConfig(serial_cutoff=8)
        got = forest_list_scan(nxt, values, heads, SUM, config=cfg, rng=rng)
        assert np.array_equal(got, ref)

    def test_restores_arrays(self, forest5, rng):
        nxt, heads, values = forest5
        bn, bv = nxt.copy(), values.copy()
        forest_list_scan(nxt, values, heads, SUM, config=SMALL, rng=rng)
        assert np.array_equal(nxt, bn)
        assert np.array_equal(values, bv)

    def test_carries(self, forest5, rng):
        nxt, heads, values = forest5
        carries = rng.integers(-100, 100, heads.size)
        ref = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, SUM, carries, ref)
        got = forest_list_scan(nxt, values, heads, SUM, carries=carries, config=SMALL, rng=rng)
        assert np.array_equal(got, ref)

    def test_max_operator(self, forest5, rng):
        nxt, heads, values = forest5
        ref = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, MAX, None, ref)
        got = forest_list_scan(nxt, values, heads, MAX, config=SMALL, rng=rng)
        assert np.array_equal(got, ref)

    def test_inclusive(self, forest5, rng):
        nxt, heads, values = forest5
        excl = forest_list_scan(nxt, values, heads, SUM, config=SMALL, rng=0)
        incl = forest_list_scan(nxt, values, heads, SUM, inclusive=True, config=SMALL, rng=0)
        assert np.array_equal(incl, excl + values)

    def test_list_ids(self, forest5, rng):
        nxt, heads, values = forest5
        _, ids = forest_list_scan(
            nxt, values, heads, SUM, config=SMALL, rng=rng,
            return_list_ids=True,
        )
        for k, h in enumerate(heads):
            cur = int(h)
            while True:
                assert ids[cur] == k
                succ = int(nxt[cur])
                if succ == cur:
                    break
                cur = succ

    def test_single_list_matches_sublist_scan(self, rng):
        from repro.baselines.serial import serial_list_scan
        from repro.lists.generate import random_list

        lst = random_list(3000, rng, values=rng.integers(-9, 9, 3000))
        got = forest_list_scan(
            lst.next, lst.values, np.asarray([lst.head]), SUM,
            config=SMALL, rng=rng,
        )
        assert np.array_equal(got, serial_list_scan(lst))

    def test_rejects_empty_forest(self, rng):
        with pytest.raises(ValueError):
            forest_list_scan(
                np.zeros(1, dtype=INDEX_DTYPE),
                np.zeros(1, dtype=np.int64),
                np.empty(0, dtype=INDEX_DTYPE),
                SUM,
            )

    def test_rejects_bad_carries(self, forest5):
        nxt, heads, values = forest5
        with pytest.raises(ValueError, match="carries"):
            forest_list_scan(
                nxt, values, heads, SUM, carries=np.zeros(heads.size + 1)
            )
