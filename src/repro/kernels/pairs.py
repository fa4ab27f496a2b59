"""The ``(companion, cross, plus)`` operator-pair formulation.

Blelloch's scan generalizes from plain semigroup reduction to
first-order linear recurrences ``x_{k+1} = a_k · x_k + b_k`` by scanning
*pairs* ``z = (first, second)`` under the point operator

    op_point(z1, z2) = (companion(z1.first, z2.first),
                        plus(cross(z1.second, z2.first), z2.second))

where ``z1`` is earlier in list order (SNIPPETS.md snippets 2–3 are the
classic C formulation).  Every builtin scalar operator is the degenerate
case that uses only ``companion`` on the first component, and ``AFFINE``
is exactly the width-2 case with ``companion = cross = multiply`` and
``plus = add`` — so one pair-generic kernel covers all of them.

A :class:`PairSpec` is *plain data* (three small opcode integers plus a
width), which is what makes the compiled backend operator-generic.

Only the builtin operators have a pair formulation (:data:`BUILTIN_PAIRS`);
a custom operator runs on the NumPy reference backend, through its own
``combine``.  :func:`pair_for` answers only for the *identical* builtin
object, so a look-alike operator shadowing a builtin name can never ride
the builtin's opcodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.operators import BUILTIN_OPERATORS, Operator

__all__ = [
    "PairSpec",
    "OP_ADD",
    "OP_MUL",
    "OP_MIN",
    "OP_MAX",
    "OP_XOR",
    "OP_AND",
    "OP_OR",
    "BITWISE_OPCODES",
    "BUILTIN_PAIRS",
    "pair_for",
]

# Scalar component opcodes.  The compiled loops dispatch on these with a
# small branch chain (see ``kernels.loops._make_kernels``).
OP_ADD = 0
OP_MUL = 1
OP_MIN = 2
OP_MAX = 3
OP_XOR = 4
OP_AND = 5
OP_OR = 6

#: Number of opcodes: every opcode lies in ``[0, N_OPCODES)``.
N_OPCODES = 7

#: Opcodes that are only defined on integer dtypes.
BITWISE_OPCODES = frozenset({OP_XOR, OP_AND, OP_OR})


@dataclass(frozen=True)
class PairSpec:
    """Opcode-level description of an operator in pair form.

    ``width == 1``: values are scalars, only ``companion`` is used.
    ``width == 2``: values are ``(first, second)`` rows and the full
    ``op_point`` formula applies.  ``cross``/``plus`` are ``-1`` (unused)
    for width-1 specs.
    """

    width: int
    companion: int
    cross: int = -1
    plus: int = -1

    def __post_init__(self) -> None:
        if self.width not in (1, 2):
            raise ValueError("PairSpec width must be 1 or 2")
        codes = [self.companion]
        if self.width == 2:
            codes += [self.cross, self.plus]
        for code in codes:
            if not 0 <= code < N_OPCODES:
                raise ValueError(f"unknown opcode {code}")

    @property
    def opcodes(self) -> tuple[int, ...]:
        """The opcodes this spec actually uses."""
        if self.width == 1:
            return (self.companion,)
        return (self.companion, self.cross, self.plus)

    def integer_only(self) -> bool:
        """Whether any component opcode is bitwise (integer dtypes only)."""
        return any(code in BITWISE_OPCODES for code in self.opcodes)


#: The pair formulation of every builtin operator, by name — which is
#: what lets AFFINE (and hence apps/recurrence.py) ride the compiled
#: loops alongside the scalar operators.
BUILTIN_PAIRS: dict[str, PairSpec] = {
    "sum": PairSpec(width=1, companion=OP_ADD),
    "prod": PairSpec(width=1, companion=OP_MUL),
    "min": PairSpec(width=1, companion=OP_MIN),
    "max": PairSpec(width=1, companion=OP_MAX),
    "xor": PairSpec(width=1, companion=OP_XOR),
    "and": PairSpec(width=1, companion=OP_AND),
    "or": PairSpec(width=1, companion=OP_OR),
    "affine": PairSpec(width=2, companion=OP_MUL, cross=OP_MUL, plus=OP_ADD),
}


def pair_for(op: Operator) -> PairSpec | None:
    """The pair formulation of ``op``, or ``None`` when it has none.

    Only a builtin operator has one, and only the *identical* object:
    a custom operator shadowing a builtin name falls back to the
    generic (NumPy ``combine``) path instead of silently computing with
    the wrong opcodes.
    """
    if BUILTIN_OPERATORS.get(op.name) is not op:
        return None
    return BUILTIN_PAIRS[op.name]
