"""Unit tests for the cost-model router and ``auto`` routing through it."""

import pytest

from repro.analysis.cost_model import PAPER_C90_COSTS
from repro.analysis.predict import predict_run
from repro.core.list_scan import _auto_algorithm, list_scan
from repro.engine.router import (
    CANDIDATES,
    Router,
    default_router,
    route_algorithm,
)
from repro.lists.generate import random_list


class TestRouterModel:
    def test_serial_is_not_a_candidate(self):
        assert CANDIDATES == ("wyllie", "sublist")

    def test_small_lists_route_wyllie(self):
        # the serial scan is the oracle, not a route: the smallest
        # lists go to the vectorized pointer jumping
        router = Router()
        for n in (0, 1, 2, 8, 64, 256):
            assert router.choose(n) == "wyllie"

    def test_large_lists_route_sublist(self):
        router = Router()
        for n in (1 << 15, 1 << 20):
            assert router.choose(n) == "sublist"

    def test_crossover_is_finite_and_reasonable(self):
        router = Router()
        cross = router.crossover()
        # the model's Wyllie/sublist crossover lands in the same regime
        # as the paper's Figure 1 structure (somewhere in the
        # hundreds..ten-thousands), and it is where the choice flips
        assert 100 <= cross <= 20_000
        assert router.choose(cross // 2) == "wyllie"
        assert router.choose(2 * cross) == "sublist"

    def test_many_tiny_lists_prefer_vector_wyllie(self):
        # fused pointer jumping over k short chains finishes in
        # log2(n/k) rounds — the model should discover that it beats
        # the sublist algorithm there
        router = Router()
        assert router.choose(256, n_lists=64) == "wyllie"

    def test_predictions_match_kernel_equations(self):
        router = Router()
        assert router.predicted_clocks(1024, "wyllie") == pytest.approx(
            PAPER_C90_COSTS.t_wyllie(1024)
        )
        assert router.predicted_clocks(1024, "sublist") == pytest.approx(
            predict_run(1024, PAPER_C90_COSTS).cycles
        )

    def test_choice_minimizes_predicted_clocks(self):
        router = Router()
        for n in (100, 5000, 1 << 16):
            best = router.choose(n)
            t_best = router.predicted_clocks(n, best)
            for alg in CANDIDATES:
                assert t_best <= router.predicted_clocks(n, alg) * 1.0001

    def test_unknown_candidate_rejected(self):
        with pytest.raises(ValueError):
            Router().predicted_clocks(100, "quantum")
        with pytest.raises(ValueError, match="routable"):
            Router().predicted_clocks(100, "serial")


class TestAutoWiring:
    def test_route_algorithm_uses_default_router(self):
        assert route_algorithm(64) == default_router().choose(64)

    def test_auto_algorithm_returns_dispatchable_name(self):
        for n in (2, 100, 4096, 1 << 18):
            assert _auto_algorithm(n) in CANDIDATES

    def test_auto_extremes(self):
        assert _auto_algorithm(16) == "wyllie"
        assert _auto_algorithm(1 << 20) == "sublist"

    def test_auto_dispatch_still_correct(self, rng):
        from repro.baselines.serial import serial_list_scan

        for n in (50, 3000, 10_000):
            lst = random_list(n, rng)
            got = list_scan(lst, algorithm="auto", rng=rng)
            assert (got == serial_list_scan(lst)).all()
