"""The paper's measured kernel timing equations (Section 3) and the
closed-form cost model built from them (Section 4.2–4.3).

Every subroutine of the vectorized implementation was timed on the
Cray C-90 and fit to a line ``T(x) = a·x + b`` in clock cycles (4.2 ns
each), where ``x`` is the vector length the subroutine operates on:

=========================  ==========================  ============
subroutine                 equation (clocks)            operates on
=========================  ==========================  ============
``INITIALIZE``             ``13·m + 8700``              m sublists
``INITIAL_RANK`` step      ``3.4·x + 80``               x live lists
``INITIAL_PACK``           ``7·x + 540``                x live lists
``FIND_SUBLIST_LIST``      ``9·m + 770``                m sublists
``SERIAL_LIST_SCAN``       ``34·m + 255``               m nodes
``FINAL_RANK`` step        ``5·x + 100``                x live lists
``FINAL_PACK``             ``6·x + 400``                x live lists
``RESTORE_LIST``           ``4·m + 250``                m sublists
=========================  ==========================  ============

(The serial per-element coefficient is the paper's measured 34
clocks/element serial traversal — Section 2.1/Figure 1; the constant
255 is from the ``T_serial_list_scan`` equation.)

Because the pack schedule is shared between Phase 1 and Phase 3, the
paper folds the pairs together (Section 4.2):

* combined rank step   ``T_rank(x)  = 8.4·x + 180``  (= a·x + b)
* combined pack step   ``T_pack(x)  = 13·x  + 940``  (= c·x + d)
* combined bookkeeping ``T_other(m) = 26·m  + 9720`` (= e·m + f)

and the closed-form total for Phases 1+3 (paper Eq. 7) is::

    T(n, m, S1, l) = a·n + b·(n/m)·ln m + (a·S1 + c + e)·m + d·l + f

:class:`KernelCosts` carries all of these constants; the default
instance is the paper's C-90 calibration, and the machine simulator can
produce alternative instances via ``repro.machine.calibration``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from collections.abc import Sequence

import numpy as np

__all__ = [
    "KernelCosts",
    "PAPER_C90_COSTS",
    "phase13_time_from_schedule",
    "phase13_time_closed_form",
    "phase2_time",
    "total_time",
    "CLOCK_NS_C90",
]

#: Cray C-90 clock period used throughout the paper, in nanoseconds.
CLOCK_NS_C90 = 4.2


@dataclass(frozen=True)
class KernelCosts:
    """Linear kernel cost table, all in machine clock cycles.

    Attribute pairs ``*_per_elem`` / ``*_const`` give the slope ``a``
    and intercept ``b`` of ``T(x) = a·x + b`` for each kernel.
    """

    initialize_per_elem: float = 13.0
    initialize_const: float = 8700.0
    initial_rank_per_elem: float = 3.4
    initial_rank_const: float = 80.0
    initial_pack_per_elem: float = 7.0
    initial_pack_const: float = 540.0
    find_sublist_per_elem: float = 9.0
    find_sublist_const: float = 770.0
    serial_per_elem: float = 34.0
    serial_const: float = 255.0
    final_rank_per_elem: float = 5.0
    final_rank_const: float = 100.0
    final_pack_per_elem: float = 6.0
    final_pack_const: float = 400.0
    restore_per_elem: float = 4.0
    restore_const: float = 250.0
    #: Wyllie inner loop per round (both gathers + add + link update);
    #: not reported as an equation in the paper — calibrated so the
    #: single-processor Wyllie asymptote matches Figure 3 (≈9 clocks
    #: per element per round plus strip startup).
    wyllie_round_per_elem: float = 9.0
    wyllie_round_const: float = 180.0
    #: Scalar machine clock period in nanoseconds.
    clock_ns: float = CLOCK_NS_C90
    #: Per-synchronisation-point cost in clocks (multiprocessor runs).
    sync_const: float = 2000.0

    # ----- the paper's combined Phase-1+3 coefficients (Section 4.2) -----

    @property
    def a(self) -> float:
        """Combined rank-step slope (paper: 8.4)."""
        return self.initial_rank_per_elem + self.final_rank_per_elem

    @property
    def b(self) -> float:
        """Combined rank-step constant (paper: 180)."""
        return self.initial_rank_const + self.final_rank_const

    @property
    def c(self) -> float:
        """Combined pack slope (paper: 13)."""
        return self.initial_pack_per_elem + self.final_pack_per_elem

    @property
    def d(self) -> float:
        """Combined pack constant (paper: 940)."""
        return self.initial_pack_const + self.final_pack_const

    @property
    def e(self) -> float:
        """Combined bookkeeping slope (paper: 26)."""
        return (
            self.initialize_per_elem
            + self.find_sublist_per_elem
            + self.restore_per_elem
        )

    @property
    def f(self) -> float:
        """Combined bookkeeping constant (paper: 9720)."""
        return self.initialize_const + self.find_sublist_const + self.restore_const

    # ----- individual kernel evaluations -----

    def t_initialize(self, m: float) -> float:
        return self.initialize_per_elem * m + self.initialize_const

    def t_initial_rank_step(self, x: float) -> float:
        return self.initial_rank_per_elem * x + self.initial_rank_const

    def t_initial_pack(self, x: float) -> float:
        return self.initial_pack_per_elem * x + self.initial_pack_const

    def t_find_sublist_list(self, m: float) -> float:
        return self.find_sublist_per_elem * m + self.find_sublist_const

    def t_serial(self, m: float) -> float:
        return self.serial_per_elem * m + self.serial_const

    def t_final_rank_step(self, x: float) -> float:
        return self.final_rank_per_elem * x + self.final_rank_const

    def t_final_pack(self, x: float) -> float:
        return self.final_pack_per_elem * x + self.final_pack_const

    def t_restore(self, m: float) -> float:
        return self.restore_per_elem * m + self.restore_const

    def t_wyllie(self, m: float) -> float:
        """Full Wyllie run on an ``m``-node list: ⌈log₂ m⌉ rounds."""
        if m <= 1:
            return 0.0
        rounds = math.ceil(math.log2(m))
        return rounds * (self.wyllie_round_per_elem * m + self.wyllie_round_const)

    def scale(self, factor: float) -> "KernelCosts":
        """Uniformly scale all costs (used for what-if machine studies)."""
        fields = {
            name: getattr(self, name) * factor
            for name in (
                "initialize_per_elem",
                "initialize_const",
                "initial_rank_per_elem",
                "initial_rank_const",
                "initial_pack_per_elem",
                "initial_pack_const",
                "find_sublist_per_elem",
                "find_sublist_const",
                "serial_per_elem",
                "serial_const",
                "final_rank_per_elem",
                "final_rank_const",
                "final_pack_per_elem",
                "final_pack_const",
                "restore_per_elem",
                "restore_const",
                "wyllie_round_per_elem",
                "wyllie_round_const",
            )
        }
        return replace(self, **fields)


#: The paper's published Cray C-90 calibration.
PAPER_C90_COSTS = KernelCosts()


def phase13_time_from_schedule(
    n: int,
    m: int,
    schedule: Sequence[float],
    costs: KernelCosts = PAPER_C90_COSTS,
    n_processors: int = 1,
) -> float:
    """Expected Phase 1+3 time by summing the schedule (paper Eq. 3/4).

    ``schedule`` is the cumulative pack-point sequence
    ``S_1 < S_2 < … < S_l`` (``S_0 = 0`` is implicit).  Segment ``i``
    performs ``S_{i+1} − S_i`` rank steps over an expected vector
    length ``g(S_i)/p``, then packs.  Bookkeeping ``T_other`` is added;
    Phase 2 is **not** included (see :func:`phase2_time`).
    """
    if n_processors < 1:
        raise ValueError("n_processors must be >= 1")
    p = n_processors
    s_points = np.concatenate(([0.0], np.asarray(schedule, dtype=np.float64)))
    if np.any(np.diff(s_points) <= 0):
        raise ValueError("schedule must be strictly increasing")
    g_vals = m * np.exp(-m * s_points[:-1] / n)
    gaps = np.diff(s_points)
    rank_time = float(np.sum(gaps * (costs.a * g_vals / p + costs.b)))
    pack_time = float(np.sum(costs.c * g_vals / p + costs.d))
    other = costs.e * m / p + costs.f
    return rank_time + pack_time + other


def phase13_time_closed_form(
    n: int,
    m: int,
    s1: float,
    n_packs: int,
    costs: KernelCosts = PAPER_C90_COSTS,
    n_processors: int = 1,
) -> float:
    """The paper's closed form (Eq. 7)::

        T = a·n/p + b·(n/m)·ln m + (a·S1 + c + e)·m/p + d·l + f

    Exact only for the *optimal* schedule; the schedule-sum form above
    is exact for any schedule.
    """
    p = n_processors
    if m <= 1:
        return costs.a * n / p + costs.f
    return (
        costs.a * n / p
        + costs.b * (n / m) * math.log(m)
        + (costs.a * s1 + costs.c + costs.e) * m / p
        + costs.d * n_packs
        + costs.f
    )


def phase2_time(
    m: int,
    costs: KernelCosts = PAPER_C90_COSTS,
    serial_cutoff: int = 256,
    recursive_cutoff: int = 65536,
) -> float:
    """Expected Phase 2 cost for a reduced list of ``m`` nodes.

    Mirrors the paper's dispatch, which the simulator keeps: serial
    below ``serial_cutoff``, Wyllie up to ``recursive_cutoff``, and a
    crude recursive estimate above (rarely reached for realistic
    ``n``).  The host scan runs Wyllie at every size.
    """
    if m <= serial_cutoff:
        return costs.t_serial(m)
    if m <= recursive_cutoff:
        return costs.t_wyllie(m)
    # recursive: model one more level with m' = m / log2(m)
    m2 = max(2, int(m / math.log2(m)))
    inner = phase2_time(m2, costs, serial_cutoff, recursive_cutoff)
    return costs.a * m + costs.b * (m / m2) * math.log(m2) + inner


def total_time(
    n: int,
    m: int,
    schedule: Sequence[float],
    costs: KernelCosts = PAPER_C90_COSTS,
    n_processors: int = 1,
    serial_cutoff: int = 256,
    recursive_cutoff: int = 65536,
) -> float:
    """Full expected algorithm time (clocks): Phases 1+3 + Phase 2."""
    return phase13_time_from_schedule(
        n, m, schedule, costs, n_processors
    ) + phase2_time(m, costs, serial_cutoff, recursive_cutoff)
