"""Binary associative operators for list scan.

"List scan … computes the 'sum' of the values on the links in a linked
list …, where 'sum' is any binary associative operator" (Section 2).
This module captures that abstraction: an :class:`Operator` bundles a
vectorized combine function, its identity, and the metadata the
algorithms need (whether the operator is a commutative group operation,
which enables Wyllie's suffix-to-prefix conversion without building
predecessor pointers).

Built-in operators
------------------

==========  =======================================  ===========
name        semantics                                invertible
==========  =======================================  ===========
``SUM``     integer/float addition                   yes
``PROD``    multiplication                           no (zeros)
``MIN``     minimum                                  no
``MAX``     maximum                                  no
``XOR``     bitwise exclusive-or                     yes
``AND``     bitwise and                              no
``OR``      bitwise or                               no
``AFFINE``  composition of affine maps x ↦ a·x + b   no
==========  =======================================  ===========

``AFFINE`` is the canonical *non-commutative* associative operator: node
values are rows ``(a, b)`` and scanning the list composes the maps in
list order.  It exercises every ordering assumption in the kernels (a
scan that silently commutes its operands fails the AFFINE tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

__all__ = [
    "Operator",
    "SUM",
    "PROD",
    "MIN",
    "MAX",
    "XOR",
    "AND",
    "OR",
    "AFFINE",
    "BUILTIN_OPERATORS",
    "get_operator",
]


@dataclass(frozen=True)
class Operator:
    """A binary associative operator usable by every scan kernel.

    Parameters
    ----------
    name:
        Short identifier (used by :func:`get_operator` and reprs).
    combine:
        Vectorized ``combine(left, right)``; *left* is the value that
        occurs earlier in list order.  Must be associative; need not be
        commutative.
    identity:
        The operator identity, or ``None`` when it is dtype-dependent
        (``MIN``/``MAX``); then :meth:`identity_for` supplies it.
    ufunc:
        The backing NumPy ufunc, when one exists.  Enables the fast
        ``ufunc.accumulate`` path in :meth:`accumulate`.
    invertible:
        True when the operator is a commutative group operation; then
        ``remove(total, part)`` solves ``x ⊕ part = total``.
    remove:
        Vectorized inverse used for the suffix→prefix conversion in
        the simulator's Wyllie (``simulate.wyllie_sim``).  Required when
        ``invertible`` is True.
    value_width:
        Number of trailing components each value occupies.  0 for
        scalar operators; ``AFFINE`` uses 2 (values have shape
        ``(n, 2)``).
    commutative:
        Informational flag consumed by tests and kernel assertions.
    nan_hostile:
        True for comparison-based operators (``min``/``max``) whose
        results are poisoned by NaN values; the engine's probe-time
        validation rejects NaN inputs for these instead of returning
        garbage.
    """

    name: str
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray]
    identity: object | None = None
    ufunc: np.ufunc | None = None
    invertible: bool = False
    remove: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    value_width: int = 0
    commutative: bool = True
    nan_hostile: bool = False

    def __post_init__(self) -> None:
        if self.invertible and self.remove is None:
            raise ValueError(f"operator {self.name}: invertible requires remove()")

    def identity_for(self, dtype: np.dtype) -> np.ndarray:
        """Identity element as a value of ``dtype`` (shape ``(value_width,)``
        for structured operators, scalar otherwise)."""
        dtype = np.dtype(dtype)
        if self.identity is not None:
            return np.asarray(self.identity, dtype=dtype)
        # dtype-dependent identities (MIN/MAX)
        if self.name == "min":
            if np.issubdtype(dtype, np.floating):
                return np.asarray(np.inf, dtype=dtype)
            return np.asarray(np.iinfo(dtype).max, dtype=dtype)
        if self.name == "max":
            if np.issubdtype(dtype, np.floating):
                return np.asarray(-np.inf, dtype=dtype)
            return np.asarray(np.iinfo(dtype).min, dtype=dtype)
        raise TypeError(f"operator {self.name} has no identity for dtype {dtype}")

    def identity_array(self, n: int, dtype: np.dtype) -> np.ndarray:
        """Array of ``n`` identity values (shape ``(n,)`` or ``(n, width)``)."""
        ident = self.identity_for(dtype)
        if self.value_width:
            out = np.empty((n, self.value_width), dtype=dtype)
            out[...] = ident
            return out
        return np.full(n, ident, dtype=dtype)

    def accumulate(self, values: np.ndarray) -> np.ndarray:
        """Inclusive left-to-right scan of a plain array.

        Uses ``ufunc.accumulate`` when available; otherwise a
        Hillis–Steele doubling scan — O(n log n) operations but fully
        vectorized, valid for any associative ``combine``.
        """
        values = np.asarray(values)
        n = values.shape[0]
        if n == 0:
            return values.copy()
        if self.ufunc is not None and values.ndim == 1:
            return self.ufunc.accumulate(values)
        acc = values.copy()
        shift = 1
        while shift < n:
            nxt = acc.copy()
            nxt[shift:] = self.combine(acc[:-shift], acc[shift:])
            acc = nxt
            shift *= 2
        return acc

    def reduce(self, values: np.ndarray) -> np.ndarray:
        """Reduce an array to a single combined value."""
        values = np.asarray(values)
        if values.shape[0] == 0:
            return self.identity_for(values.dtype)
        if self.ufunc is not None and values.ndim == 1:
            return self.ufunc.reduce(values)
        acc = self.accumulate(values)
        return acc[-1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Operator({self.name!r})"


def _affine_combine(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Compose affine maps: apply *first* (earlier in list order), then
    *second*.  ``(a1,b1) ∘then∘ (a2,b2) = (a2·a1, a2·b1 + b2)``."""
    first = np.asarray(first)
    second = np.asarray(second)
    out = np.empty(np.broadcast_shapes(first.shape, second.shape), dtype=first.dtype)
    a1, b1 = first[..., 0], first[..., 1]
    a2, b2 = second[..., 0], second[..., 1]
    out[..., 0] = a2 * a1
    out[..., 1] = a2 * b1 + b2
    return out


SUM = Operator(
    name="sum",
    combine=np.add,
    identity=0,
    ufunc=np.add,
    invertible=True,
    remove=np.subtract,
)

PROD = Operator(name="prod", combine=np.multiply, identity=1, ufunc=np.multiply)

MIN = Operator(name="min", combine=np.minimum, ufunc=np.minimum, nan_hostile=True)

MAX = Operator(name="max", combine=np.maximum, ufunc=np.maximum, nan_hostile=True)

XOR = Operator(
    name="xor",
    combine=np.bitwise_xor,
    identity=0,
    ufunc=np.bitwise_xor,
    invertible=True,
    remove=np.bitwise_xor,
)

AND = Operator(name="and", combine=np.bitwise_and, identity=-1, ufunc=np.bitwise_and)

OR = Operator(name="or", combine=np.bitwise_or, identity=0, ufunc=np.bitwise_or)

AFFINE = Operator(
    name="affine",
    combine=_affine_combine,
    identity=(1, 0),
    value_width=2,
    commutative=False,
)

BUILTIN_OPERATORS = {
    op.name: op for op in (SUM, PROD, MIN, MAX, XOR, AND, OR, AFFINE)
}


def get_operator(name_or_op: Operator | str) -> Operator:
    """Resolve an operator by name or pass an :class:`Operator` through."""
    if isinstance(name_or_op, Operator):
        return name_or_op
    try:
        return BUILTIN_OPERATORS[name_or_op]
    except KeyError:
        raise KeyError(
            f"unknown operator {name_or_op!r}; available: "
            f"{sorted(BUILTIN_OPERATORS)}"
        ) from None
