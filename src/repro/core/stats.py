"""Lightweight instrumentation shared by all host-backend algorithms.

Table 1 of the paper compares the algorithms on *work* (total element
operations), *constants*, and *space* (auxiliary words per list
element).  :class:`ScanStats` lets every algorithm report exactly those
quantities without affecting the hot loops: counters are bumped once
per vector operation (with the vector length), never per element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ScanStats"]


@dataclass
class ScanStats:
    """Operation and space accounting for one scan invocation.

    Attributes
    ----------
    element_ops:
        Total element operations across all vector steps — the "work"
        column of Table 1.  One traversal step over a vector of ``x``
        live sublists adds ``x``.
    gathers / scatters:
        Total elements moved through indexed loads/stores; the paper's
        machines pay ≈2 clocks per element for these, so they dominate
        the constant factors.
    rounds:
        Number of data-parallel steps (pointer-jump rounds, traversal
        steps, pack steps …).
    packs:
        Number of load-balancing (pack) operations performed.
    peak_aux_words:
        High-water mark of auxiliary array words allocated beyond the
        input/output, the "space" column of Table 1 (paper: serial n,
        Wyllie 4n, ours 3n + 5m, random mate ≥ 5n).
    phases:
        Per-phase element-op breakdown (e.g. ``{"phase1": …}``).
    """

    element_ops: int = 0
    gathers: int = 0
    scatters: int = 0
    rounds: int = 0
    packs: int = 0
    peak_aux_words: int = 0
    _live_aux_words: int = 0
    phases: dict[str, int] = field(default_factory=dict)

    def add_work(self, n_elements: int, phase: str = "") -> None:
        """Record a vector step over ``n_elements`` elements."""
        self.element_ops += int(n_elements)
        if phase:
            self.phases[phase] = self.phases.get(phase, 0) + int(n_elements)

    def add_gather(self, n_elements: int) -> None:
        self.gathers += int(n_elements)

    def add_scatter(self, n_elements: int) -> None:
        self.scatters += int(n_elements)

    def add_round(self, count: int = 1) -> None:
        self.rounds += int(count)

    def add_pack(self, count: int = 1) -> None:
        self.packs += int(count)

    def alloc(self, words: int) -> None:
        """Record allocation of ``words`` auxiliary words."""
        self._live_aux_words += int(words)
        if self._live_aux_words > self.peak_aux_words:
            self.peak_aux_words = self._live_aux_words

    def free(self, words: int) -> None:
        """Record release of ``words`` auxiliary words."""
        self._live_aux_words -= int(words)

    def merge(self, other: "ScanStats") -> None:
        """Fold another scan's counters into this one, as if it had run
        inside it (``perfbench/layers.py`` sums every scan's stats this
        way)."""
        self.element_ops += other.element_ops
        self.gathers += other.gathers
        self.scatters += other.scatters
        self.rounds += other.rounds
        self.packs += other.packs
        self.peak_aux_words = max(
            self.peak_aux_words, self._live_aux_words + other.peak_aux_words
        )
        for key, val in other.phases.items():
            self.phases[key] = self.phases.get(key, 0) + val

    def work_per_element(self, n: int) -> float:
        """Work normalized by list length (Table 1's O(·) column, measured)."""
        return self.element_ops / max(n, 1)
