"""Unit tests for working-set sharding and batch fusion."""

import numpy as np
import pytest

import tracemalloc

from repro import list_scan
from repro.baselines.serial import serial_list_scan
from repro.core.operators import AFFINE, MAX, SUM, XOR
from repro.core.stats import ScanStats
from repro.engine import Engine
from repro.engine.batch import FUSE_NODES, FusedBatch, shard_requests
from repro.engine.queue import ScanRequest
from repro.engine.workers import run_fused_kernel
from repro.kernels import ENV_VAR
from repro.lists.generate import list_order, random_list, random_values
from repro.lists.validate import ListStructureError

from .conftest import C_BACKEND, make_affine_values, within
from .test_validate import HOSTILE_SHAPES, hostile_list


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
        # fusing copies nothing: each member is its request's own list
        for req, nxt, values in zip(reqs, batch.forest.nexts, batch.forest.values):
            assert nxt is req.lst.next and values is req.lst.values
        # each list keeps exactly one self-loop tail in its range of the
        # one node array the contiguous paths build
        nxt, _ = batch.forest.contiguous()
        loops = np.flatnonzero(nxt == np.arange(batch.n_nodes))
        assert loops.size == 3
        for k, req in enumerate(reqs):
            lo, hi = batch.offsets[k], batch.offsets[k + 1]
            assert batch.heads[k] == lo + req.lst.head
            assert ((loops >= lo) & (loops < hi)).sum() == 1

    def test_does_not_alias_inputs(self):
        reqs = [make_request(40, seed=1), make_request(40, seed=2)]
        batch = FusedBatch.fuse(reqs)
        nxt, values = batch.forest.contiguous()
        nxt[:] = 0
        values[:] = 0
        for req in reqs:
            assert req.lst.next.max() > 0
            assert np.any(req.lst.values != 0)

    def test_unfuse_roundtrip_matches_serial(self):
        reqs = [make_request(n, seed=n) for n in (30, 45, 64, 7)]
        batch = FusedBatch.fuse(reqs)
        from repro.core.forest import serial_forest_scan

        nxt, values = batch.forest.contiguous()
        out = np.empty_like(values)
        serial_forest_scan(nxt, values, batch.heads, batch.op, None, out)
        parts = batch.unfuse(out)
        for req, part in zip(reqs, parts):
            np.testing.assert_array_equal(part, serial_list_scan(req.lst, SUM))

    def test_unfuse_returns_copies(self):
        reqs = [make_request(20, seed=1), make_request(20, seed=2)]
        batch = FusedBatch.fuse(reqs)
        out = np.zeros(batch.n_nodes, dtype=np.int64)
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
        _, values = batch.forest.contiguous()
        assert values.shape == (36, 2)
        results = run_fused_kernel(
            batch.forest,
            AFFINE,
            False,
            "sublist",
            np.random.default_rng(0),
            ScanStats(),
            [np.empty_like(req.lst.values) for req in reqs],
        )
        for req, got in zip(reqs, results):
            np.testing.assert_allclose(got, serial_list_scan(req.lst, AFFINE), rtol=1e-9)

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
        nxt, values = batch.forest.contiguous()
        assert nxt is req.lst.next and values is req.lst.values
        assert list(batch.heads) == [req.lst.head]
        assert list(batch.offsets) == [0, 90]
        out = np.empty_like(values)
        [part] = batch.unfuse(out)
        assert part is out

    def test_lone_request_is_range_checked(self):
        req = make_request(30, seed=5)
        req.lst.next[7] = 30  # one past the end
        batch = FusedBatch.fuse([req])
        for algorithm in ("serial", "wyllie", "sublist"):
            with pytest.raises(ListStructureError, match="out of range"):
                run_fused_kernel(
                    batch.forest,
                    SUM,
                    False,
                    algorithm,
                    np.random.default_rng(0),
                    ScanStats(),
                    [np.empty_like(req.lst.values)],
                )

    def test_each_head_is_checked_against_its_own_list(self):
        # offset into the forest, head 40 of a 40-node list would be
        # node 0 of the next list
        reqs = [make_request(40, seed=1), make_request(40, seed=2)]
        reqs[0].lst.head = 40
        with pytest.raises(ListStructureError, match="out of range"):
            FusedBatch.fuse(reqs)


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
        # the serial oracle has no forest kernel: a forced request runs
        # per list, alone or sharded with another, and counts its n
        big, other = float_pair()
        with Engine(executor="sync", cache_capacity=0) as engine:
            engine.run_batch([ScanRequest(lst=big, algorithm="serial")])
            assert engine.stats.element_ops == big.n
            assert engine.stats.solo_runs == 1 and engine.stats.fused_lists == 0
            engine.run_batch(
                [ScanRequest(lst=lst, algorithm="serial") for lst in (big, other)]
            )
            assert engine.stats.element_ops == 2 * big.n + other.n
            assert engine.stats.solo_runs == 3 and engine.stats.fused_lists == 0


class TestNoSerialOnAutoPaths:
    """The serial scan is the oracle, not a route: with every binding of
    it patched to raise, auto-routed engine batches and sublist scans
    of small forests and small Phase 2s still answer."""

    @staticmethod
    def no_serial(monkeypatch):
        """Patch the serial scans to raise wherever a ``repro`` module
        binds them (the oracles a test needs are computed before)."""
        import sys

        import repro.core.early_reconnect  # noqa: F401 - bind it before patching

        def boom(*args, **kwargs):
            raise AssertionError("the serial oracle ran on an auto path")

        for name, module in list(sys.modules.items()):
            for fn in ("serial_forest_scan", "serial_list_scan"):
                if name.startswith("repro.") and hasattr(module, fn):
                    monkeypatch.setattr(module, fn, boom)

    def test_engine_auto_routes(self, monkeypatch):
        rng = np.random.default_rng(31)
        lone_64, lone_1024 = (
            random_list(n, rng, values=rng.integers(-9, 9, n)) for n in (64, 1024)
        )
        shard = [random_list(64, rng, values=rng.integers(-9, 9, 64)) for _ in range(16)]
        batches = [[lone_64], [lone_1024], shard]
        oracles = [[serial_list_scan(lst) for lst in batch] for batch in batches]
        self.no_serial(monkeypatch)
        with Engine(executor="sync", cache_capacity=0) as engine:
            for batch, oracle in zip(batches, oracles):
                responses = engine.run_batch([ScanRequest(lst=lst) for lst in batch])
                assert {resp.batch_lists for resp in responses} == {len(batch)}
                for resp, want in zip(responses, oracle):
                    assert resp.ok, resp.error
                    assert resp.algorithm in ("wyllie", "sublist")
                    np.testing.assert_array_equal(resp.result, want)

    @pytest.mark.parametrize("kernel_backend", ["numpy", "python"])
    def test_sublist_small_phase2_and_small_forest(self, monkeypatch, kernel_backend):
        from repro.core.forest import SublistConfig, forest_list_scan
        from repro.core.stats import ScanStats

        rng = np.random.default_rng(32)
        lst = random_list(5000, rng, values=rng.integers(-9, 9, 5000))
        small = [random_list(50, rng, values=rng.integers(-9, 9, 50)) for _ in range(4)]
        nxt = np.concatenate([s.next + 50 * k for k, s in enumerate(small)])
        values = np.concatenate([s.values for s in small])
        heads = [s.head + 50 * k for k, s in enumerate(small)]
        want_big = serial_list_scan(lst)
        want_small = np.concatenate([serial_list_scan(s) for s in small])
        self.no_serial(monkeypatch)
        config = SublistConfig(m=128)
        stats = ScanStats()
        got = forest_list_scan(
            lst.next, lst.values, [lst.head], SUM, config=config, rng=0, stats=stats,
            kernel_backend=kernel_backend,
        )
        np.testing.assert_array_equal(got, want_big)
        assert stats.packs > 0  # the sublist scan ran, with m = 128 sublists
        assert nxt.shape[0] <= config.serial_cutoff
        got = forest_list_scan(nxt, values, heads, SUM, kernel_backend=kernel_backend)
        np.testing.assert_array_equal(got, want_small)

    def test_early_reconnect_small_list(self, monkeypatch):
        rng = np.random.default_rng(33)
        lst = random_list(100, rng, values=rng.integers(-9, 9, 100))
        want = serial_list_scan(lst, inclusive=True)
        self.no_serial(monkeypatch)
        got = list_scan(lst, algorithm="early_reconnect", inclusive=True, rng=0)
        np.testing.assert_array_equal(got, want)


#: Value kinds the fused path must answer exactly as ``list_scan``:
#: ``(operator, values of n nodes, exact)``; floats and ``AFFINE`` maps
#: re-associate, so they agree within a tolerance.
KINDS = {
    "int64": (SUM, lambda rng, n: rng.integers(-1000, 1000, n), True),
    "int32": (SUM, lambda rng, n: rng.integers(-1000, 1000, n).astype(np.int32), True),
    "bool": (XOR, lambda rng, n: rng.integers(0, 2, n).astype(bool), True),
    "float": (SUM, lambda rng, n: rng.random(n), False),
    "affine": (
        AFFINE,
        lambda rng, n: np.stack([rng.uniform(0.95, 1.05, n), rng.random(n)], axis=1),
        False,
    ),
}


def mixed_lists(rng, count, values):
    """``count`` random lists of log-uniform sizes from 1 to 5,000 nodes."""
    sizes = np.rint(np.exp(rng.uniform(0, np.log(5000), count))).astype(int)
    return [random_list(int(n), rng, values=values(rng, int(n))) for n in sizes]


def assert_matches_list_scan(responses, lists, op, inclusive, exact):
    for lst, resp in zip(lists, responses):
        assert resp.ok, resp.error
        expect = list_scan(lst, op, inclusive=inclusive)
        if exact:
            assert resp.result.dtype == expect.dtype
            np.testing.assert_array_equal(resp.result, expect)
        else:
            np.testing.assert_allclose(resp.result, expect, rtol=1e-9)


@pytest.mark.parametrize("backend", ["numpy", "python", C_BACKEND])
@pytest.mark.parametrize("executor", ["sync", "threads"])
class TestFusedPathOracle:
    """A fused shard copies each member once into the scan's records and
    writes each member's result into its own array: every member gets
    exactly what ``list_scan`` gives it alone, on every kernel backend
    of the process."""

    @pytest.fixture(autouse=True)
    def _process_backend(self, backend, monkeypatch):
        monkeypatch.setenv(ENV_VAR, backend)

    @pytest.mark.parametrize("inclusive", [False, True])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_matches_list_scan(self, executor, backend, kind, inclusive):
        op, values, exact = KINDS[kind]
        rng = np.random.default_rng(sorted(KINDS).index(kind) + 10 * inclusive)
        with Engine(executor=executor, cache_capacity=0) as engine:
            for count in (1, int(rng.integers(2, 40)), 40):
                lists = mixed_lists(rng, count, values)
                reqs = [
                    ScanRequest(lst=lst, op=op, inclusive=inclusive, algorithm="sublist")
                    for lst in lists
                ]
                responses = engine.run_batch(reqs)
                # one shard: identical tiny lists coalesce, so it may hold fewer
                assert len({resp.batch_lists for resp in responses}) == 1
                assert_matches_list_scan(responses, lists, op, inclusive, exact)

    @pytest.mark.parametrize("algorithm", ["serial", "wyllie"])
    def test_serial_and_wyllie_shards_match_list_scan(self, executor, backend, algorithm):
        rng = np.random.default_rng(7)
        with Engine(executor=executor, cache_capacity=0) as engine:
            for kind in ("int64", "affine"):
                op, values, exact = KINDS[kind]
                lists = mixed_lists(rng, 12, values)
                reqs = [ScanRequest(lst=lst, op=op, algorithm=algorithm) for lst in lists]
                assert_matches_list_scan(engine.run_batch(reqs), lists, op, False, exact)

    @pytest.mark.parametrize("shape", HOSTILE_SHAPES)
    def test_a_bad_member_answers_alone(self, executor, backend, shape):
        rng = np.random.default_rng(3)
        good = mixed_lists(rng, 6, lambda rng, n: rng.integers(-9, 9, n))
        lists = [*good[:3], hostile_list(shape, 2000), *good[3:]]
        reqs = [ScanRequest(lst=lst, algorithm="sublist") for lst in lists]
        engine = Engine(executor=executor, cache_capacity=0)
        with within(60), engine:
            responses = engine.run_batch(reqs)
        bad = responses.pop(3)
        assert not bad.ok and bad.error.code == "bad-structure"
        assert_matches_list_scan(responses, good, SUM, False, True)


class TestFusedShardMemory:
    def test_inline_sublist_shard_builds_no_concatenated_forest(self):
        """27 lists of 2^18 int64 nodes in all: the scan's records (16
        bytes a node) and the results (8) must be most of the peak.  A
        concatenated successor and value array (16 more) or a fused
        result array (8 more) would take it past 32 bytes a node."""
        rng = np.random.default_rng(23)
        sizes = rng.multinomial((1 << 18) - 27, np.ones(27) / 27) + 1
        lists = [random_list(int(n), rng, values=rng.integers(-9, 9, int(n))) for n in sizes]
        reqs = [ScanRequest(lst=lst, algorithm="sublist") for lst in lists]
        with Engine(executor="sync", cache_capacity=0) as engine:
            engine.run_batch(reqs[:2])  # lazy imports and tables
            tracemalloc.start()
            try:
                responses = engine.run_batch(reqs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert all(resp.ok and resp.batch_lists == 27 for resp in responses)
        n = int(sizes.sum())
        assert 24 * n < peak < 32 * n
