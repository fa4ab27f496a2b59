"""Wyllie's pointer-jumping algorithm (paper Section 2.2).

"The first parallel algorithm for list ranking is due to Wyllie.  …
Each processor, in parallel, modifies its next pointer to point to its
successor's successor."  After ⌈log₂ n⌉ rounds every pointer has
converged and the accumulated values give the scan.  The algorithm is
simple and fully vectorizable but *work-inefficient*: it performs
Θ(n log n) element operations, which is exactly the sawtooth
degradation measured in the paper's Figures 1 and 3.

The host has one Wyllie, :func:`repro.core.forest.wyllie_forest_scan`,
which also runs the engine's Wyllie shards, small forests and Phase 2;
:func:`wyllie_list_scan` runs it over the forest of one list.  It jumps
along *predecessor* pointers, so each node folds its prefix directly
and any associative operator works, floats and ``AFFINE`` included.
The paper's form, which jumps along ``next`` and turns suffix sums into
prefixes with the operator's inverse, lives with its C-90 cycle
accounting in ``simulate.wyllie_sim``.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.operators import Operator, SUM, get_operator
from ..core.stats import ScanStats
from ..lists.generate import INDEX_DTYPE, LinkedList

__all__ = ["wyllie_list_scan", "wyllie_list_rank", "wyllie_rounds"]


def wyllie_rounds(n: int) -> int:
    """Number of pointer-jumping rounds needed for an ``n``-node list.

    Each round doubles the accumulated window.  The deepest node needs
    a window of ``n − 1`` proper values (the terminal node holds the
    identity), so ⌈log₂(n−1)⌉ rounds suffice — the paper's
    ``⌈log n − 1⌉`` step function whose jumps cause the sawtooth in
    Figures 1 and 3.
    """
    if n <= 2:
        return 0
    return int(math.ceil(math.log2(n - 1)))


def wyllie_list_scan(
    lst: LinkedList,
    op: Operator | str = SUM,
    inclusive: bool = False,
    stats: ScanStats | None = None,
) -> np.ndarray:
    """List scan via Wyllie pointer jumping: ``core.forest``'s
    :func:`~repro.core.forest.wyllie_forest_scan` over the forest of one
    list.  Raises :class:`repro.lists.ListStructureError` unless ``lst``
    is a list."""
    from ..core import forest  # core.sublist imports this module

    op = get_operator(op)
    out = np.empty_like(lst.values)
    heads = np.asarray([lst.head], dtype=INDEX_DTYPE)
    forest.wyllie_forest_scan(lst.next, lst.values, heads, op, None, out, stats=stats)
    if inclusive:
        out = op.combine(out, lst.values)
    return out


def wyllie_list_rank(
    lst: LinkedList, stats: ScanStats | None = None
) -> np.ndarray:
    """List ranking via Wyllie: scan of all-ones values under ``+``."""
    ones = LinkedList(lst.next, lst.head, np.ones(lst.n, dtype=np.int64))
    return wyllie_list_scan(ones, SUM, stats=stats)
