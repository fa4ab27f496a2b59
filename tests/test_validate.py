"""Unit tests for the structural validators."""

import numpy as np
import pytest

from repro.lists.generate import INDEX_DTYPE, LinkedList, ordered_list, random_list
from repro.lists.validate import (
    ListStructureError,
    is_valid_list,
    validate_list,
    validate_list_strict,
)


def raw_list(nxt, head, n=None):
    """Build a LinkedList bypassing constructor checks where needed."""
    nxt = np.asarray(nxt, dtype=INDEX_DTYPE)
    lst = LinkedList.__new__(LinkedList)
    lst.next = nxt
    lst.head = head
    lst.values = np.ones(nxt.shape[0], dtype=np.int64)
    return lst


class TestValidateList:
    @pytest.mark.parametrize("n", [1, 2, 5, 100])
    def test_accepts_valid(self, n, rng):
        validate_list(random_list(n, rng))

    def test_rejects_out_of_range(self):
        with pytest.raises(ListStructureError, match="out of range"):
            validate_list(raw_list([1, 5], 0))

    def test_rejects_negative_index(self):
        with pytest.raises(ListStructureError, match="out of range"):
            validate_list(raw_list([-1, 1], 0))

    def test_rejects_no_self_loop(self):
        # pure cycle, no tail
        with pytest.raises(ListStructureError, match="self-loop"):
            validate_list(raw_list([1, 2, 0], 0))

    def test_rejects_two_self_loops(self):
        with pytest.raises(ListStructureError, match="self-loop"):
            validate_list(raw_list([0, 1], 0))

    def test_rejects_head_with_predecessor(self):
        # 0 -> 1 -> 1 but head claimed to be 1
        with pytest.raises(ListStructureError, match="head"):
            validate_list(raw_list([1, 1], 1))

    def test_rejects_converging_links(self):
        # two nodes point at the same successor
        with pytest.raises(ListStructureError, match="in-degree"):
            validate_list(raw_list([2, 2, 3, 3], 0))

    def test_rejects_wrong_dtype(self):
        lst = raw_list([1, 1], 0)
        lst.next = lst.next.astype(np.int32)
        with pytest.raises(ListStructureError, match="dtype"):
            validate_list(lst)

    def test_rejects_2d_next(self):
        lst = raw_list([1, 1], 0)
        lst.next = lst.next.reshape(1, 2)
        with pytest.raises(ListStructureError, match="one-dimensional"):
            validate_list(lst)

    def test_singleton_head_must_be_tail(self):
        validate_list(raw_list([0], 0))

    def test_multi_node_head_equals_tail_rejected(self):
        with pytest.raises(ListStructureError, match="tail of a multi-node"):
            validate_list(raw_list([1, 1], 1))


class TestValidateStrict:
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1000])
    def test_accepts_valid(self, n, rng):
        validate_list_strict(random_list(n, rng))

    def test_rejects_disjoint_cycle(self):
        # chain 0→1→1 plus cycle 2→3→2: every in-degree is right, only
        # reachability catches it
        lst = raw_list([1, 1, 3, 2], 0)
        validate_list(lst)  # local checks pass — by design
        with pytest.raises(ListStructureError, match="cycle"):
            validate_list_strict(lst)

    def test_rejects_large_disjoint_cycle(self, rng):
        base = random_list(100, rng)
        nxt = np.concatenate([base.next, [101, 102, 100]]).astype(INDEX_DTYPE)
        lst = raw_list(nxt, base.head)
        with pytest.raises(ListStructureError):
            validate_list_strict(lst)


class TestIsValid:
    def test_true_for_valid(self, rng):
        assert is_valid_list(random_list(10, rng))

    def test_false_for_invalid(self):
        assert not is_valid_list(raw_list([1, 2, 0], 0))

    def test_non_strict_mode_misses_disjoint_cycle(self):
        lst = raw_list([1, 1, 3, 2], 0)
        assert is_valid_list(lst, strict=False)
        assert not is_valid_list(lst, strict=True)

    def test_ordered_always_valid(self):
        assert is_valid_list(ordered_list(50))


class TestCorruptionGuards:
    """The traversal loops refuse to spin forever on cyclic input."""

    @staticmethod
    def _cycle_with_decoy_tail(n):
        """A big cycle plus one disjoint self-loop: local checks can
        pass, but traversal never terminates."""
        nxt = np.roll(np.arange(n - 1), -1)
        nxt = np.concatenate([nxt, [n - 1]])
        return nxt

    def test_pure_cycle_rejected_immediately(self):
        from repro.core.sublist import SublistConfig, sublist_list_scan

        n = 2000
        lst = raw_list(np.roll(np.arange(n), -1), 0)  # no self-loop at all
        with pytest.raises(ListStructureError, match="self-loop"):
            sublist_list_scan(lst, config=SublistConfig(m=16, s1=4.0), rng=0)

    def test_sublist_scan_raises_on_cycle(self):
        from repro.core.sublist import SublistConfig, sublist_list_scan

        n = 2000
        lst = raw_list(self._cycle_with_decoy_tail(n), 0)
        with pytest.raises(ListStructureError, match="cycle"):
            sublist_list_scan(lst, config=SublistConfig(m=16, s1=4.0), rng=0)

    def test_sublist_scan_restores_after_cycle_error(self):
        from repro.core.sublist import SublistConfig, sublist_list_scan

        n = 2000
        nxt = self._cycle_with_decoy_tail(n)
        lst = raw_list(nxt.copy(), 0)
        with pytest.raises(ListStructureError):
            sublist_list_scan(lst, config=SublistConfig(m=16, s1=4.0), rng=0)
        assert np.array_equal(lst.next, nxt)

    @staticmethod
    def _forest_with_cyclic_list(n=2000):
        """List 0 runs 0→…→n-4 and self-loops there; the list headed at
        n-3 is a 3-cycle that never reaches a tail."""
        nxt = np.arange(1, n + 1, dtype=INDEX_DTYPE)
        nxt[n - 4] = n - 4
        nxt[n - 3 :] = [n - 2, n - 1, n - 3]
        return nxt

    @pytest.mark.parametrize(
        "seed, splitters, message",
        [
            # spaced splitters miss the 3-cycle: the traversal bound stops it
            (0, "spaced", "traversal exceeded"),
            (1, "spaced", "traversal exceeded"),
            # seed 0's random splitters cut it: too few reduced chain ends
            (0, "random", "fewer chain ends"),
        ],
    )
    def test_forest_scan_raises_on_cycle(self, seed, splitters, message):
        from repro.core.forest import SublistConfig, forest_list_scan
        from repro.core.operators import SUM

        nxt = self._forest_with_cyclic_list()
        work = nxt.copy()
        values = np.ones(nxt.shape[0], dtype=np.int64)
        config = SublistConfig(splitters=splitters)
        with pytest.raises(ListStructureError, match=message):
            forest_list_scan(work, values, np.array([0, 1997]), SUM, config=config, rng=seed)
        assert np.array_equal(work, nxt)
        assert np.all(values == 1)

    def test_engine_answers_fused_shard_with_cyclic_list(self):
        """validate="off" fuses the cyclic list with three good ones;
        the shard fails, and the quarantine answers every request."""
        from repro.baselines.serial import serial_list_scan
        from repro.engine import Engine, ScanRequest

        rng = np.random.default_rng(5)
        good = [ScanRequest(lst=random_list(2000, rng)) for _ in range(3)]
        bad = ScanRequest(lst=raw_list(self._forest_with_cyclic_list(), 1997))
        with Engine(executor="sync", validate="off", cache_capacity=0) as engine:
            responses = engine.run_batch([*good, bad])
        assert [r.ok for r in responses] == [True, True, True, False]
        assert responses[-1].error.code == "execution"
        for req, resp in zip(good, responses):
            assert np.array_equal(resp.result, serial_list_scan(req.lst))

    def test_serial_segment_raises_on_cycle(self):
        from repro.baselines.serial import serial_scan_segment
        from repro.core.operators import SUM

        n = 100
        nxt = np.roll(np.arange(n), -1)
        with pytest.raises(ValueError, match="corrupted"):
            serial_scan_segment(nxt, np.ones(n, dtype=np.int64), 0, SUM, 0)

    def test_forest_serial_raises_on_cycle(self):
        from repro.core.forest import serial_forest_scan
        from repro.core.operators import SUM

        n = 50
        nxt = np.roll(np.arange(n), -1).astype(INDEX_DTYPE)
        out = np.empty(n, dtype=np.int64)
        with pytest.raises(ValueError, match="terminate"):
            serial_forest_scan(
                nxt, np.ones(n, dtype=np.int64), np.array([0]), SUM, None, out
            )
