"""Cost-model algorithm routing.

The paper's Section 3/4 kernel equations predict the running time of
*every* algorithm as a function of the problem size, and Section 4.4
shows the predictions track measurements closely.  The :class:`Router`
evaluates those predictions and picks the cheaper of the two vectorized
forest kernels:

* ``wyllie``  — ``⌈log₂(n/k)⌉`` rounds of ``9·n + 180`` clocks for a
  forest of ``k`` chains (one chain for a single list);
* ``sublist`` — the full Eq. 3 schedule-sum plus Phase-2 dispatch cost
  (``analysis.predict.predict_run``) at the ``(m, S₁)`` the kernel
  runs, tuned on the C-90 table, as ``core.forest`` tunes them.

The serial scan is not a candidate.  On the C-90 it won below a few
hundred nodes; on the host it is a Python loop that loses to Wyllie on
every forest but a lone list of a few nodes, so it is the oracle the
tests compare against, and a request that forces it runs per list.

Every router prices from a cost table (:class:`KernelCosts`): the
paper's published C-90 table by default, or a table fitted for another
machine (``machine.calibration``, ``repro.calibrate``).

A router's table is fixed when it is built: an engine given a fitted
profile builds its router on the profile's table, which prices the
kernel's ``(m, S₁)`` but does not change them.  Decisions are cached
per √2-rounded size bucket (``core.tuning.sqrt2_bucket``, the bucketing
of the tuned parameters), so repeated routing is O(1) after the first
call for each size region.  Every cached decision derives from the one
table, and CPython dict get/set are atomic, so concurrent
:meth:`Router.choose` calls need no lock.
"""

from __future__ import annotations

import math

from ..analysis.cost_model import KernelCosts, PAPER_C90_COSTS
from ..analysis.predict import predict_run
from ..core.tuning import sqrt2_bucket, tuned_parameters

__all__ = ["Router", "route_algorithm", "default_router"]

#: Algorithms the router chooses between.  Both have forest
#: (multi-list) kernels, so a routed batch can always be executed fused.
CANDIDATES = ("wyllie", "sublist")


class Router:
    """Pick the cheaper algorithm for an ``n``-node problem.

    ``costs`` is the kernel calibration driving the predictions.
    """

    def __init__(self, costs: KernelCosts = PAPER_C90_COSTS) -> None:
        self.costs = costs
        self._choices: dict[tuple[int, int], str] = {}

    def predicted_clocks(self, n: int, algorithm: str, n_lists: int = 1) -> float:
        """Model-predicted clocks for one algorithm on ``n`` total nodes
        spread over ``n_lists`` independent lists."""
        costs = self.costs
        n = max(int(n), 1)
        n_lists = max(int(n_lists), 1)
        if algorithm == "wyllie":
            # pointer jumping converges in log2 of the longest chain;
            # with balanced sharding that is ≈ n / n_lists
            longest = max(2.0, n / n_lists)
            rounds = math.ceil(math.log2(longest))
            return rounds * (costs.wyllie_round_per_elem * n + costs.wyllie_round_const)
        if algorithm == "sublist":
            m, s1 = tuned_parameters(n)
            return predict_run(n, costs, m=m, s1=s1).cycles
        raise ValueError(
            f"unknown routable algorithm {algorithm!r}; expected one of {CANDIDATES}"
        )

    def choose(self, n: int, n_lists: int = 1) -> str:
        """The cheapest candidate for ``n`` nodes over ``n_lists`` lists."""
        key = (sqrt2_bucket(int(n)), sqrt2_bucket(max(int(n_lists), 1)))
        cached = self._choices.get(key)
        if cached is not None:
            return cached
        best = min(
            CANDIDATES, key=lambda alg: self.predicted_clocks(key[0], alg, key[1])
        )
        self._choices[key] = best
        return best

    def crossover(self, lo: int = 2, hi: int = 1 << 22) -> int:
        """Smallest ``n`` (within [lo, hi], up to bucket resolution) at
        which a lone list routes to ``sublist``, not ``wyllie``: the
        crossover of the paper's Fig. 1."""
        if self.choose(lo) == "sublist":
            return lo
        if self.choose(hi) != "sublist":
            return hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.choose(mid) == "sublist":
                hi = mid
            else:
                lo = mid
        return hi


_DEFAULT_ROUTER: Router | None = None


def default_router() -> Router:
    """The process-wide router (paper C-90 calibration), built lazily."""
    global _DEFAULT_ROUTER
    if _DEFAULT_ROUTER is None:
        _DEFAULT_ROUTER = Router()
    return _DEFAULT_ROUTER


def route_algorithm(n: int, n_lists: int = 1) -> str:
    """Route an ``n``-node problem through the process-wide router (the
    paper's table)."""
    return default_router().choose(n, n_lists)
