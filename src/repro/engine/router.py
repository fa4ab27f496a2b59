"""Cost-model algorithm routing.

The paper's Section 3/4 kernel equations predict the running time of
*every* algorithm as a function of the problem size, and Section 4.4
shows the predictions track measurements closely.  The :class:`Router`
evaluates those predictions and picks the cheaper of the two vectorized
forest kernels:

* ``wyllie``  — ``⌈log₂(n/k)⌉`` rounds of ``9·n + 180`` clocks for a
  forest of ``k`` chains (one chain for a single list);
* ``sublist`` — the full Eq. 3 schedule-sum plus Phase-2 dispatch cost
  at the model-tuned ``(m, S₁)`` (``analysis.predict.predict_run``).

The serial scan is not a candidate.  On the C-90 it won below a few
hundred nodes; on the host it is a Python loop that loses to Wyllie on
every forest but a lone list of a few nodes, so it is the oracle the
tests compare against, and a request that forces it runs per list.

Every router prices from a cost table (:class:`KernelCosts`): the
paper's published C-90 table by default, or a table fitted for another
machine (``machine.calibration``, ``repro.calibrate``).

Decisions are cached per √2-rounded size bucket (the same bucketing as
``core.tuning``), so repeated routing is O(1) after the first call for
each size region.

The calibration is swappable at runtime: :meth:`Router.set_costs`
installs a new table and a fresh (empty) decision cache in one atomic
reference assignment.  Readers snapshot the ``(costs, cache)`` pair
once per call, so a concurrent swap can never pair old-table decisions
with the new cache or vice versa — this is what lets
``Engine.recalibrate`` hot-swap a fitted profile under live traffic.
"""

from __future__ import annotations

import math

from ..analysis.cost_model import KernelCosts, PAPER_C90_COSTS
from ..analysis.predict import predict_run
from ..sanitize.runtime import atomic_read, atomic_write

__all__ = ["Router", "route_algorithm", "default_router"]

#: Algorithms the router chooses between.  Both have forest
#: (multi-list) kernels, so a routed batch can always be executed fused.
CANDIDATES = ("wyllie", "sublist")


class _RouterState:
    """One immutable calibration epoch: a cost table plus the decision
    cache built *from that table*.

    Bundling the two means a single reference assignment swaps both —
    a reader that snapshots the state sees a cache containing only
    decisions computed under the same table it is about to use.
    (The ``choices`` dict itself mutates as decisions are memoized;
    that is safe because every value it will ever hold is derived from
    the same immutable ``costs``, and CPython dict get/set are atomic.)
    """

    __slots__ = ("costs", "choices")

    def __init__(self, costs: KernelCosts) -> None:
        self.costs = costs
        self.choices: dict[tuple[int, int], str] = {}


def _bucket(n: int) -> int:
    """Round to the nearest power of √2 (mirrors ``core.tuning``)."""
    if n < 4:
        return n
    return int(round(2 ** (round(2 * math.log2(n)) / 2)))


class Router:
    """Pick the cheaper algorithm for an ``n``-node problem.

    ``costs`` is the kernel calibration driving the predictions.
    """

    def __init__(self, costs: KernelCosts = PAPER_C90_COSTS) -> None:
        self._state = _RouterState(costs)

    @property
    def costs(self) -> KernelCosts:
        """The active cost table."""
        return self._state.costs

    def set_costs(self, costs: KernelCosts) -> None:
        """Install a new calibration and invalidate the decision cache.

        The swap is atomic: the new table and a fresh empty cache are
        bundled into one state object and installed with a single
        reference assignment, so concurrent :meth:`choose` calls see
        either the old ``(costs, cache)`` pair or the new one — never
        a stale decision served against the new table.
        """
        self._state = _RouterState(costs)
        atomic_write("router.state")

    def _predicted(
        self, costs: KernelCosts, n: int, algorithm: str, n_lists: int
    ) -> float:
        n = max(int(n), 1)
        n_lists = max(int(n_lists), 1)
        if algorithm == "wyllie":
            # pointer jumping converges in log2 of the longest chain;
            # with balanced sharding that is ≈ n / n_lists
            longest = max(2.0, n / n_lists)
            rounds = math.ceil(math.log2(longest))
            return rounds * (costs.wyllie_round_per_elem * n + costs.wyllie_round_const)
        if algorithm == "sublist":
            return predict_run(n, costs).cycles
        raise ValueError(
            f"unknown routable algorithm {algorithm!r}; expected one of {CANDIDATES}"
        )

    def predicted_clocks(self, n: int, algorithm: str, n_lists: int = 1) -> float:
        """Model-predicted clocks for one algorithm on ``n`` total nodes
        spread over ``n_lists`` independent lists."""
        return self._predicted(self._state.costs, n, algorithm, n_lists)

    def choose(self, n: int, n_lists: int = 1) -> str:
        """The cheapest candidate for ``n`` nodes over ``n_lists`` lists."""
        n = int(n)
        n_lists = max(int(n_lists), 1)
        atomic_read("router.state")
        state = self._state  # one snapshot: costs + cache stay paired
        key = (_bucket(n), _bucket(n_lists))
        cached = state.choices.get(key)
        if cached is not None:
            return cached
        best = min(
            CANDIDATES,
            key=lambda alg: self._predicted(state.costs, key[0], alg, key[1]),
        )
        state.choices[key] = best
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


def route_algorithm(n: int, n_lists: int = 1, router: Router | None = None) -> str:
    """Route an ``n``-node problem through ``router`` (default: the
    process-wide router on the paper's table)."""
    return (router or default_router()).choose(n, n_lists)
