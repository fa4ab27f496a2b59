"""Unit tests for working-set sharding and batch fusion."""

import numpy as np
import pytest

from repro.baselines.serial import serial_list_scan
from repro.core.operators import AFFINE, MAX, SUM
from repro.engine import Engine
from repro.engine.batch import FUSE_NODES, FusedBatch, shard_requests
from repro.engine.queue import ScanRequest
from repro.lists.generate import list_order, random_list, random_values
from repro.lists.validate import ListStructureError

from .conftest import make_affine_values


def make_request(n, seed=0, op=SUM, inclusive=False, algorithm="auto"):
    rng = np.random.default_rng(seed)
    lst = random_list(n, rng, values=random_values(n, rng))
    return ScanRequest(lst=lst, op=op, inclusive=inclusive, algorithm=algorithm)


def sizes(shards):
    return [[req.n for req in shard] for shard in shards]


class TestSharding:
    def test_lists_of_any_size_under_the_cap_fuse(self):
        reqs = [make_request(n, seed=n) for n in (10, 5000, 12, 70_000)]
        assert sizes(shard_requests(reqs)) == [[10, 5000, 12, 70_000]]

    def test_list_above_the_cap_runs_alone(self):
        reqs = [make_request(n, seed=n) for n in (100, FUSE_NODES + 1, 200)]
        assert sizes(shard_requests(reqs)) == [[100], [FUSE_NODES + 1], [200]]

    def test_shard_closes_when_the_next_list_would_overflow(self):
        half = FUSE_NODES // 2
        reqs = [make_request(n, seed=n) for n in (half, half, 1, half)]
        assert sizes(shard_requests(reqs)) == [[half, half], [1, half]]

    def test_separates_operators_and_flags(self):
        reqs = [
            make_request(100, op=SUM),
            make_request(100, op=MAX),
            make_request(100, op=SUM, inclusive=True),
            make_request(100, op=SUM, algorithm="wyllie"),
        ]
        assert len(shard_requests(reqs)) == 4

    def test_preserves_insertion_order(self):
        # interleaved keys stay in separate shards, each in arrival order
        reqs = [make_request(100, seed=i, op=(SUM, MAX)[i % 2]) for i in range(6)]
        by_sum, by_max = shard_requests(reqs)
        assert [r.request_id for r in by_sum] == [r.request_id for r in reqs[0::2]]
        assert [r.request_id for r in by_max] == [r.request_id for r in reqs[1::2]]

    def test_mixed_small_batch_runs_as_one_shard(self):
        reqs = [make_request((64, 256, 1024, 4096)[k % 4], seed=k) for k in range(28)]
        with Engine(executor="sync", cache_capacity=0) as engine:
            responses = engine.run_batch(reqs)
            assert engine.stats.shards == 1
        for req, resp in zip(reqs, responses):
            assert resp.ok and resp.batch_lists == 28
            np.testing.assert_array_equal(resp.result, serial_list_scan(req.lst, SUM))


class TestFusedBatch:
    def test_structure(self):
        reqs = [make_request(n, seed=n) for n in (50, 60, 70)]
        batch = FusedBatch.fuse(reqs)
        assert batch.n_nodes == 180
        assert batch.n_lists == 3
        assert list(batch.offsets) == [0, 50, 110, 180]
        # each fused list keeps exactly one self-loop tail in its range
        idx = np.arange(batch.n_nodes)
        loops = np.flatnonzero(batch.nxt == idx)
        assert loops.size == 3
        for k in range(3):
            lo, hi = batch.offsets[k], batch.offsets[k + 1]
            assert lo <= batch.heads[k] < hi
            assert ((loops >= lo) & (loops < hi)).sum() == 1

    def test_does_not_alias_inputs(self):
        reqs = [make_request(40, seed=1), make_request(40, seed=2)]
        batch = FusedBatch.fuse(reqs)
        batch.nxt[:] = 0
        batch.values[:] = 0
        for req in reqs:
            assert req.lst.next.max() > 0
            assert np.any(req.lst.values != 0)

    def test_unfuse_roundtrip_matches_serial(self):
        reqs = [make_request(n, seed=n) for n in (30, 45, 64, 7)]
        batch = FusedBatch.fuse(reqs)
        from repro.core.forest import serial_forest_scan

        out = np.empty_like(batch.values)
        serial_forest_scan(
            batch.nxt, batch.values, batch.heads, batch.op, None, out
        )
        parts = batch.unfuse(out)
        for req, part in zip(reqs, parts):
            np.testing.assert_array_equal(part, serial_list_scan(req.lst, SUM))

    def test_unfuse_returns_copies(self):
        reqs = [make_request(20, seed=1), make_request(20, seed=2)]
        batch = FusedBatch.fuse(reqs)
        out = np.zeros_like(batch.values)
        parts = batch.unfuse(out)
        out[:] = 99
        assert np.all(parts[0] == 0)

    def test_affine_values_fuse(self):
        rng = np.random.default_rng(5)
        reqs = [
            ScanRequest(
                lst=random_list(n, rng, values=make_affine_values(rng, n)),
                op=AFFINE,
            )
            for n in (16, 20)
        ]
        batch = FusedBatch.fuse(reqs)
        assert batch.values.shape == (36, 2)

    def test_rejects_mixed_shard(self):
        with pytest.raises(ValueError):
            FusedBatch.fuse([make_request(10, op=SUM), make_request(10, op=MAX)])
        with pytest.raises(ValueError):
            FusedBatch.fuse(
                [make_request(10), make_request(10, inclusive=True)]
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FusedBatch.fuse([])

    def test_lone_request_is_a_forest_of_one_over_its_own_arrays(self):
        req = make_request(90, seed=4)
        batch = FusedBatch.fuse([req])
        assert batch.nxt is req.lst.next and batch.values is req.lst.values
        assert list(batch.heads) == [req.lst.head]
        assert list(batch.offsets) == [0, 90]
        out = np.empty_like(batch.values)
        [part] = batch.unfuse(out)
        assert part is out

    def test_lone_request_is_range_checked(self):
        req = make_request(30, seed=5)
        req.lst.next[7] = 30  # one past the end
        with pytest.raises(ListStructureError, match="out of range"):
            FusedBatch.fuse([req])


def float_pair(n=3000, seed=9):
    """A float ``n``-node list holding one 1e16 value, and a second,
    shorter list to fuse it with."""
    rng = np.random.default_rng(seed)
    big = random_list(n, rng, values=rng.random(n))
    big.values[list_order(big)[n // 3]] = 1e16
    return big, random_list(500, rng, values=rng.random(500))


class TestLoneShard:
    """A lone request runs as a forest of one: the same kernels, and so
    the same answer, as when it fuses with another request."""

    def _lone_and_fused(self, algorithm, inclusive):
        big, other = float_pair()
        reqs = [
            ScanRequest(lst=lst, algorithm=algorithm, inclusive=inclusive)
            for lst in (big, other)
        ]
        with Engine(executor="sync", cache_capacity=0) as engine:
            [lone] = engine.run_batch(reqs[:1])
            fused, _ = engine.run_batch(reqs)
        assert lone.ok and fused.ok and fused.batch_lists == 2
        return lone.result, fused.result

    @pytest.mark.parametrize("inclusive", [False, True])
    @pytest.mark.parametrize("algorithm", ["serial", "wyllie"])
    def test_lone_equals_fused_bit_for_bit(self, algorithm, inclusive):
        lone, fused = self._lone_and_fused(algorithm, inclusive)
        np.testing.assert_array_equal(lone, fused)

    @pytest.mark.parametrize("inclusive", [False, True])
    def test_lone_sublist_agrees_with_fused(self, inclusive):
        # the splitters differ with the forest, so the float sums
        # associate differently
        lone, fused = self._lone_and_fused("sublist", inclusive)
        np.testing.assert_allclose(lone, fused, rtol=1e-9)

    def test_lone_serial_counts_its_element_ops(self):
        big, other = float_pair()
        with Engine(executor="sync", cache_capacity=0) as engine:
            engine.run_batch([ScanRequest(lst=big, algorithm="serial")])
            assert engine.stats.element_ops == big.n
            assert engine.stats.solo_runs == 1 and engine.stats.fused_lists == 0
            engine.run_batch(
                [ScanRequest(lst=lst, algorithm="serial") for lst in (big, other)]
            )
            assert engine.stats.element_ops == 2 * big.n + other.n
            assert engine.stats.fused_lists == 2
