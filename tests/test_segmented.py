"""Unit tests for segmented scans."""

import numpy as np
import pytest

from repro.core.operators import MAX, SUM, get_operator
from repro.core.segmented import (
    pack_segmented_values,
    segmented_list_scan,
    segmented_operator,
)
from repro.lists.generate import list_order, ordered_list, random_list


def reference_segmented(lst, heads, op, inclusive=False):
    """Oracle: walk the list, resetting at segment heads."""
    op = get_operator(op)
    heads = set(int(h) for h in heads) | {lst.head}
    out = np.empty_like(lst.values)
    acc = op.identity_for(lst.values.dtype)
    cur = lst.head
    for _ in range(lst.n):
        if cur in heads:
            acc = op.identity_for(lst.values.dtype)
        if inclusive:
            acc = op.combine(acc, lst.values[cur])
            out[cur] = acc
        else:
            out[cur] = acc
            acc = op.combine(acc, lst.values[cur])
        succ = int(lst.next[cur])
        if succ == cur:
            break
        cur = succ
    return out


class TestSegmentedOperator:
    def test_associative(self, rng):
        seg = segmented_operator(SUM)
        rows = lambda: np.stack(
            [rng.integers(0, 2, 40), rng.integers(-9, 9, 40)], axis=1
        )
        a, b, c = rows(), rows(), rows()
        left = seg.combine(seg.combine(a, b), c)
        right = seg.combine(a, seg.combine(b, c))
        assert np.array_equal(left, right)

    def test_identity(self, rng):
        seg = segmented_operator(SUM)
        x = np.stack([rng.integers(0, 2, 10), rng.integers(-9, 9, 10)], axis=1)
        ident = seg.identity_for(np.int64)
        assert np.array_equal(seg.combine(ident, x), x)

    def test_flag_blocks_flow(self):
        seg = segmented_operator(SUM)
        a = np.array([0, 5], dtype=np.int64)
        b = np.array([1, 7], dtype=np.int64)  # new segment
        assert np.array_equal(seg.combine(a, b), [1, 7])

    def test_no_flag_combines(self):
        seg = segmented_operator(SUM)
        a = np.array([1, 5], dtype=np.int64)
        b = np.array([0, 7], dtype=np.int64)
        assert np.array_equal(seg.combine(a, b), [1, 12])

    def test_rejects_structured_base(self):
        from repro.core.operators import AFFINE

        with pytest.raises(ValueError, match="scalar"):
            segmented_operator(AFFINE)


class TestPacking:
    def test_flags_at_heads(self, rng):
        vals = rng.integers(0, 9, 10)
        rows = pack_segmented_values(vals, [2, 7])
        assert rows[2, 0] == 1 and rows[7, 0] == 1
        assert rows[:, 0].sum() == 2
        assert np.array_equal(rows[:, 1], vals)

    def test_rejects_2d(self, rng):
        with pytest.raises(ValueError):
            pack_segmented_values(np.ones((4, 2)), [0])


class TestSegmentedListScan:
    @pytest.mark.parametrize("algorithm", ["serial", "wyllie", "sublist"])
    def test_matches_oracle(self, algorithm, rng):
        n = 2000
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        order = list_order(lst)
        heads = order[np.sort(rng.choice(n, size=17, replace=False))]
        got = segmented_list_scan(
            lst, heads, SUM, algorithm=algorithm, rng=rng
        )
        expect = reference_segmented(lst, heads, SUM)
        assert np.array_equal(got, expect)

    def test_inclusive(self, rng):
        n = 500
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        order = list_order(lst)
        heads = order[[100, 200, 499]]
        got = segmented_list_scan(lst, heads, SUM, inclusive=True, rng=rng)
        expect = reference_segmented(lst, heads, SUM, inclusive=True)
        assert np.array_equal(got, expect)

    def test_max_operator(self, rng):
        n = 800
        lst = random_list(n, rng, values=rng.integers(-99, 99, n))
        order = list_order(lst)
        heads = order[[50, 400]]
        got = segmented_list_scan(lst, heads, MAX, rng=rng)
        expect = reference_segmented(lst, heads, MAX)
        assert np.array_equal(got, expect)

    def test_no_extra_segments_is_plain_scan(self, rng):
        from repro.baselines.serial import serial_list_scan

        lst = random_list(300, rng, values=rng.integers(-9, 9, 300))
        got = segmented_list_scan(lst, np.empty(0, dtype=np.int64), rng=rng)
        assert np.array_equal(got, serial_list_scan(lst))

    def test_every_node_its_own_segment(self, rng):
        lst = random_list(100, rng, values=rng.integers(-9, 9, 100))
        got = segmented_list_scan(lst, np.arange(100), SUM, rng=rng)
        assert np.all(got == 0)

    def test_agrees_with_forest_scan(self, rng):
        """Segmented scan over a concatenation ≡ forest scan over the
        pieces (the two multi-list routes agree)."""
        from repro.core.forest import SublistConfig, forest_list_scan

        n = 1200
        lst = ordered_list(n, values=rng.integers(-9, 9, n))
        heads = np.asarray([300, 700], dtype=np.int64)
        seg = segmented_list_scan(lst, heads, SUM, rng=rng)
        # build the equivalent forest by cutting before each head
        nxt = lst.next.copy()
        nxt[299] = 299
        nxt[699] = 699
        f = forest_list_scan(
            nxt,
            lst.values,
            np.asarray([0, 300, 700]),
            SUM,
            config=SublistConfig(serial_cutoff=8),
            rng=rng,
        )
        assert np.array_equal(seg, f)
