"""Unit tests for the structural validators, and the hostile-structure
matrix: every scan path refuses a non-list."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.baselines.serial import serial_list_scan
from repro.core.forest import (
    SublistConfig,
    forest_list_scan,
    serial_forest_scan,
    wyllie_forest_scan,
)
from repro.core.list_scan import ALGORITHMS, list_scan
from repro.core.operators import SUM
from repro.engine import Engine, ScanRequest
from repro.kernels import ENV_VAR
from repro.lists.generate import INDEX_DTYPE, LinkedList, list_order, ordered_list, random_list
from repro.lists.validate import (
    ListStructureError,
    drop_repeats,
    is_valid_list,
    validate_list,
    validate_list_strict,
)

from .conftest import C_BACKEND, within


def raw_list(nxt, head, n=None):
    """Build a LinkedList bypassing constructor checks where needed."""
    nxt = np.asarray(nxt, dtype=INDEX_DTYPE)
    lst = LinkedList.__new__(LinkedList)
    lst.next = nxt
    lst.head = head
    lst.values = np.ones(nxt.shape[0], dtype=np.int64)
    return lst


class TestDropRepeats:
    """The sort-based dedup the scans use in place of ``np.unique``."""

    @given(
        values=st.lists(st.integers(-(2**31), 2**31 - 1), max_size=64),
        order=st.sampled_from(["drawn", "sorted", "reversed", "all_equal"]),
        dtype=st.sampled_from([np.int32, np.int64]),
    )
    @example(values=[], order="drawn", dtype=np.int64)
    @example(values=[7], order="drawn", dtype=np.int32)
    def test_matches_np_unique(self, values, order, dtype):
        a = np.asarray(values, dtype=dtype)
        if order == "sorted":
            a = np.sort(a)
        elif order == "reversed":
            a = np.sort(a)[::-1]
        elif order == "all_equal":
            a = np.full(a.shape[0], values[0] if values else 0, dtype=dtype)
        want = np.unique(a)
        got = drop_repeats(np.sort(a))
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        if order in ("sorted", "all_equal"):  # already sorted: the mask alone
            np.testing.assert_array_equal(drop_repeats(a), want)


class TestValidateList:
    @pytest.mark.parametrize("n", [1, 2, 5, 100])
    def test_accepts_valid(self, n, rng):
        validate_list(random_list(n, rng))

    def test_rejects_out_of_range(self):
        with pytest.raises(ListStructureError, match="out of range"):
            validate_list(raw_list([1, 5], 0))

    def test_range_error_names_the_bad_successor(self):
        with pytest.raises(ListStructureError, match=r"next\[1\] = 7 "):
            validate_list(raw_list([1, 7, 2], 0))

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

    @pytest.mark.parametrize("seed, splitters", [(0, "spaced"), (1, "spaced"), (0, "random")])
    def test_forest_scan_raises_on_cycle(self, seed, splitters):
        """The cyclic list has no self-loop tail: whichever nodes the
        splitters cut, Initialize counts one self-loop for two lists."""
        nxt = self._forest_with_cyclic_list()
        work = nxt.copy()
        values = np.ones(nxt.shape[0], dtype=np.int64)
        config = SublistConfig(splitters=splitters)
        with pytest.raises(ListStructureError, match="1 self-loop tails for 2 lists"):
            forest_list_scan(work, values, np.array([0, 1997]), SUM, config=config, rng=seed)
        assert np.array_equal(work, nxt)
        assert np.all(values == 1)

    @pytest.mark.parametrize("bad", ["n", "-1"])
    @pytest.mark.parametrize("n", [100, 5000])
    def test_out_of_range_successor_rejected(self, n, bad):
        """Successor ``n`` or ``-1`` leads off the node array, into the
        scan's sink record: refuse it, at the serial and sublist sizes."""
        from repro.core.forest import forest_list_scan
        from repro.core.list_scan import list_scan
        from repro.core.operators import SUM
        from repro.lists.generate import list_order

        lst = random_list(n, np.random.default_rng(8))
        lst.next[list_order(lst)[n // 2]] = n if bad == "n" else -1
        nxt, values = lst.next.copy(), lst.values.copy()
        with pytest.raises(ListStructureError, match="outside"):
            list_scan(lst, algorithm="sublist", rng=0)
        with pytest.raises(ListStructureError, match="outside"):
            forest_list_scan(lst.next, lst.values, np.array([lst.head]), SUM, rng=0)
        assert np.array_equal(lst.next, nxt)
        assert np.array_equal(lst.values, values)

    def test_engine_answers_fused_shard_with_cyclic_list(self):
        """The engine fuses the cyclic list with three good ones; the
        shard fails, and the quarantine answers every request."""
        from repro.baselines.serial import serial_list_scan
        from repro.engine import Engine, ScanRequest

        rng = np.random.default_rng(5)
        good = [ScanRequest(lst=random_list(2000, rng)) for _ in range(3)]
        bad = ScanRequest(lst=raw_list(self._forest_with_cyclic_list(), 1997))
        with Engine(executor="sync", cache_capacity=0) as engine:
            responses = engine.run_batch([*good, bad])
        assert [r.ok for r in responses] == [True, True, True, False]
        assert responses[-1].error.code == "bad-structure"
        for req, resp in zip(good, responses):
            assert np.array_equal(resp.result, serial_list_scan(req.lst))

    def test_serial_scan_rejects_disjoint_cycle(self):
        """The walk ends at the chain's tail before the 3-cycle's nodes:
        answer with an error, never with unwritten output."""
        from repro.baselines.serial import serial_list_scan

        lst = raw_list(self._forest_with_cyclic_list(200), 0)
        with pytest.raises(ListStructureError, match="exactly 200 nodes"):
            serial_list_scan(lst)

    def test_serial_rank_rejects_disjoint_cycle(self):
        from repro.baselines.serial import serial_list_rank

        lst = raw_list(self._forest_with_cyclic_list(200), 0)
        with pytest.raises(ListStructureError, match="exactly 200 nodes"):
            serial_list_rank(lst)

    def test_engine_serial_request_with_disjoint_cycle_is_an_error(self):
        """The engine admits this list; the serial walk's count must
        then refuse it."""
        from repro.engine import Engine, ScanRequest

        lst = raw_list(self._forest_with_cyclic_list(900), 0)
        with Engine(executor="sync", cache_capacity=0) as engine:
            (resp,) = engine.run_batch([ScanRequest(lst=lst, algorithm="serial")])
        assert not resp.ok
        assert resp.error.code == "bad-structure"
        assert resp.result is None

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


# ----------------------------------------------------------------------
# hostile structures: every scan path refuses a non-list
# ----------------------------------------------------------------------

HOSTILE_SHAPES = (
    "disjoint_cycle",
    "rho",
    "merge",
    "successor_n_plus_5",
    "successor_minus_2",
    "edge_into_head",
)


def hostile_list(shape, n, seed=0):
    """A random ``n``-node list broken into one of :data:`HOSTILE_SHAPES`."""
    rng = np.random.default_rng(seed)
    lst = random_list(n, rng, values=rng.integers(-9, 9, n))
    order = list_order(lst)
    mid = order[n // 2]
    if shape == "disjoint_cycle":  # the chain ends early, beside a 3-cycle
        lst.next[order[-4]] = order[-4]
        lst.next[order[-3:]] = order[[-2, -1, -3]]
    elif shape == "rho":  # the tail runs back into the middle
        lst.next[order[-1]] = mid
    elif shape == "merge":  # skip a node, which still points onward
        lst.next[mid] = order[n // 2 + 2]
    elif shape == "successor_n_plus_5":
        lst.next[mid] = n + 5
    elif shape == "successor_minus_2":
        lst.next[mid] = -2
    else:  # "edge_into_head": halfway along, the chain turns back
        lst.next[mid] = lst.head
    return lst


def good_lists(n, count=3):
    return [
        random_list(n, np.random.default_rng(s), values=np.arange(n) % 7)
        for s in range(1, count + 1)
    ]


def fused_forest(bad, n):
    """Three good ``n``-node lists and ``bad`` (second) in one node array,
    offset as the engine fuses them."""
    lists = good_lists(n)
    lists.insert(1, bad)
    nxt = np.concatenate([lst.next + k * n for k, lst in enumerate(lists)])
    values = np.concatenate([lst.values for lst in lists])
    heads = np.asarray([lst.head + k * n for k, lst in enumerate(lists)], dtype=INDEX_DTYPE)
    return nxt, values, heads


@pytest.mark.parametrize("n", [200, 5000])
@pytest.mark.parametrize("shape", HOSTILE_SHAPES)
class TestHostileStructures:
    """Each case raises ``ListStructureError`` or answers
    ``bad-structure``, never ``ok``, and never spins."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_list_scan(self, shape, n, algorithm):
        lst = hostile_list(shape, n)
        with within(60), pytest.raises(ListStructureError):
            list_scan(lst, algorithm=algorithm, rng=0)

    @pytest.mark.parametrize("backend", ["numpy", C_BACKEND])
    def test_forest_list_scan(self, shape, n, backend):
        lst = hostile_list(shape, n)
        heads = np.asarray([lst.head], dtype=INDEX_DTYPE)
        with within(60), pytest.raises(ListStructureError):
            forest_list_scan(lst.next, lst.values, heads, SUM, rng=0, kernel_backend=backend)

    @pytest.mark.parametrize("kernel", ["serial", "wyllie", "sublist"])
    def test_fused_forest(self, shape, n, kernel):
        nxt, values, heads = fused_forest(hostile_list(shape, n), n)
        out = np.empty_like(values)
        with within(60), pytest.raises(ListStructureError):
            if kernel == "serial":
                serial_forest_scan(nxt, values, heads, SUM, None, out)
            elif kernel == "wyllie":
                wyllie_forest_scan(nxt, values, heads, SUM, None, out)
            else:
                forest_list_scan(nxt, values, heads, SUM, rng=0, out=out)

    @pytest.mark.parametrize("fused", [False, True])
    def test_engine(self, shape, n, fused):
        good = [ScanRequest(lst=lst) for lst in good_lists(n)] if fused else []
        bad = ScanRequest(lst=hostile_list(shape, n))
        with within(60), Engine(executor="sync", cache_capacity=0) as engine:
            *answers, refused = engine.run_batch([*good, bad])
        assert not refused.ok
        assert refused.error.code == "bad-structure"
        assert refused.error.phase == "execute"
        for req, resp in zip(good, answers):
            assert resp.ok
            assert np.array_equal(resp.result, serial_list_scan(req.lst))


class TestMarks:
    """Phase 1 marks every node it visits with its processor; a chain that
    reaches a mark raises ``ListStructureError`` on every backend (the C
    loop tests for it, since C does not bounds-check), never a bare
    ``IndexError``, and the engine answers ``bad-structure``."""

    @pytest.mark.parametrize("backend", ["numpy", C_BACKEND])
    def test_merge_reads_a_mark(self, backend):
        # list A 0→…→9, list B 10→…→19 merging into A at node 5, and an
        # isolated self-loop 20 keeping the tail count at two lists
        nxt = np.arange(1, 22, dtype=INDEX_DTYPE)
        nxt[9], nxt[19], nxt[20] = 9, 5, 20
        values = np.ones(21, dtype=np.int64)
        config = SublistConfig(serial_cutoff=4, m=3)
        with pytest.raises(ListStructureError, match="already visited"):
            forest_list_scan(nxt, values, [0, 10], SUM, config=config, kernel_backend=backend)

    @pytest.mark.parametrize("backend", ["numpy", C_BACKEND])
    @pytest.mark.parametrize("shape", HOSTILE_SHAPES)
    def test_engine_answers_bad_structure(self, shape, backend, monkeypatch):
        monkeypatch.setenv(ENV_VAR, backend)
        engine = Engine(executor="sync", cache_capacity=0)
        assert engine.kernel_backend == backend
        with within(60), engine:
            [resp] = engine.run_batch([ScanRequest(lst=hostile_list(shape, 5000))])
        assert not resp.ok and resp.error.code == "bad-structure"


class TestNoSpinNoBareErrors:
    @pytest.mark.parametrize("seed", range(6))
    def test_anderson_miller_refuses_disjoint_cycle(self, seed):
        """Splicing shrinks the 3-cycle to a self-looped remnant; that
        raises instead of spinning forever."""
        from repro.baselines.anderson_miller import anderson_miller_list_scan

        lst = hostile_list("disjoint_cycle", 200)
        with within(1), pytest.raises(ListStructureError):
            anderson_miller_list_scan(lst, rng=seed)

    @pytest.mark.parametrize("shape", ["successor_n_plus_5", "successor_minus_2"])
    @pytest.mark.parametrize("walk", ["scan", "rank"])
    def test_serial_walks_check_their_range(self, walk, shape):
        from repro.baselines.serial import serial_list_rank

        lst = hostile_list(shape, 200)
        with pytest.raises(ListStructureError, match="outside"):
            if walk == "scan":
                serial_list_scan(lst)
            else:
                serial_list_rank(lst)

    @pytest.mark.parametrize("backend", ["numpy", C_BACKEND])
    def test_phase2_refuses_a_cycle_of_sublists(self, backend):
        """A long disjoint cycle holds splitters of its own, so the
        reduced list holds a cycle too: Phase 2 must refuse it, or
        Phase 3 would write every node from garbage carries."""
        rng = np.random.default_rng(3)
        chain = random_list(20_000, rng)
        cycle = 20_000 + (np.arange(1, 3_001) % 3_000)
        nxt = np.concatenate([chain.next, cycle]).astype(INDEX_DTYPE)
        values = np.ones(nxt.shape[0], dtype=np.int64)
        heads = np.asarray([chain.head], dtype=INDEX_DTYPE)
        with within(60), pytest.raises(ListStructureError):
            forest_list_scan(nxt, values, heads, SUM, rng=0, kernel_backend=backend)

    def test_small_phase2_refuses_a_cycle_of_sublists(self):
        """The same with at most ``serial_cutoff`` sublists, whose
        reduced forest the numpy backend scans with Wyllie: the
        pointers on the cycle never reach a head, and Wyllie refuses."""
        rng = np.random.default_rng(3)
        chain = random_list(20_000, rng)
        cycle = 20_000 + (np.arange(1, 3_001) % 3_000)
        nxt = np.concatenate([chain.next, cycle]).astype(INDEX_DTYPE)
        values = np.ones(nxt.shape[0], dtype=np.int64)
        config = SublistConfig(m=200)
        with within(60), pytest.raises(ListStructureError, match="cycle no head reaches"):
            forest_list_scan(
                nxt, values, [chain.head], SUM, config=config, rng=0, kernel_backend="numpy"
            )

    def test_wyllie_suffix_rho_is_a_structure_error(self):
        """A rho has no self-loop at all: ``LinkedList.tail`` used to
        raise a bare ``ValueError`` from the suffix variant."""
        from repro.baselines.wyllie import wyllie_suffix

        with pytest.raises(ListStructureError):
            wyllie_suffix(hostile_list("rho", 200))


def cross_linked_pair(n):
    """Two bad ``n``-node lists that fuse into a good forest: A's tail
    points one past its block, into B's node 0, and B holds two chains
    (its head's, and the one from node 0, which its head never reaches)."""
    if n == 2:
        return raw_list([1, 2], 0), raw_list([0, 1], 1)
    k = n // 2
    b = np.arange(1, n + 1)
    b[k], b[n - 1] = k, n - 1
    return raw_list(np.arange(1, n + 1), 0), raw_list(b, k + 1)


class TestFusedMembersStayInTheirBlocks:
    """A successor outside its own list must not reach a shard-mate."""

    @pytest.mark.parametrize("n", [2, 3000])
    def test_engine_refuses_two_bad_lists_that_fuse_into_a_forest(self, n):
        a, b = cross_linked_pair(n)
        nxt = np.concatenate([a.next, b.next + n])  # fused, the pair is a valid forest
        forest_list_scan(nxt, np.ones(2 * n, dtype=np.int64), [a.head, b.head + n], SUM)
        with within(60), Engine(executor="sync") as engine:
            responses = engine.run_batch([ScanRequest(lst=a), ScanRequest(lst=b)])
            assert [r.ok for r in responses] == [False, False]
            assert {r.error.code for r in responses} == {"bad-structure"}
            assert len(engine.cache) == 0


def unreached_half(shape, n=4000):
    """A chain over the first half of ``n`` nodes, from head 0, beside a
    second half that no head reaches: a chain of its own or a cycle."""
    nxt = np.arange(1, n + 1)
    nxt[n // 2 - 1] = n // 2 - 1
    nxt[n - 1] = n - 1 if shape == "headless_chain" else n // 2
    return raw_list(nxt, 0)


@pytest.mark.parametrize("shape", ["headless_chain", "disjoint_cycle"])
def test_engine_refuses_a_half_no_head_reaches(shape):
    """The fused route refuses the unreached half, and answers no node
    of it from unwritten memory."""
    with within(60), Engine(executor="sync", cache_capacity=0) as engine:
        [resp] = engine.run_batch([ScanRequest(lst=unreached_half(shape))])
    assert not resp.ok
    assert resp.error.code == "bad-structure"
