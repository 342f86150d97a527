"""Boolean evaluation of gate functions.

Logic values are plain ints ``0`` and ``1``.  The engine never propagates
unknowns: DC initialisation assigns a defined value to every net before any
event is processed, and events always carry a defined new value.
"""

from __future__ import annotations

import enum
from typing import Sequence, Union

from ..errors import LogicError


class GateFunction(enum.Enum):
    """The boolean function computed by a gate type.

    Variable-arity functions (AND/NAND/OR/NOR/XOR/XNOR) accept any number of
    inputs >= 1; fixed-arity functions check their arity on evaluation.
    """

    BUF = "buf"
    INV = "inv"
    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    MUX2 = "mux2"
    AOI21 = "aoi21"
    OAI21 = "oai21"
    MAJ3 = "maj3"

    @property
    def fixed_arity(self) -> int | None:
        """Number of inputs the function requires, or None if variable."""
        return _FIXED_ARITY.get(self)

    @property
    def is_inverting(self) -> bool:
        """True when the function's last stage is inverting.

        Used by the analog expansion: inverting functions map directly onto
        complementary CMOS gates, non-inverting ones need an output inverter.
        """
        return self in _INVERTING


_FIXED_ARITY = {
    GateFunction.BUF: 1,
    GateFunction.INV: 1,
    GateFunction.MUX2: 3,
    GateFunction.AOI21: 3,
    GateFunction.OAI21: 3,
    GateFunction.MAJ3: 3,
}

_INVERTING = frozenset(
    {
        GateFunction.INV,
        GateFunction.NAND,
        GateFunction.NOR,
        GateFunction.XNOR,
        GateFunction.AOI21,
        GateFunction.OAI21,
    }
)


class TableFunction:
    """An explicit truth-table gate function.

    Duck-types the :class:`GateFunction` surface the evaluation layers
    touch (``name``, ``fixed_arity``, ``is_inverting``), but computes the
    output by table lookup instead of enum dispatch.  This is how the
    fault-injection layer (:mod:`repro.faults`) expresses mutated cells
    — a stuck-at or bit-flipped gate has no named boolean function — so
    one stand-in object drives the reference engine, DC initialisation
    and any re-lowering identically.

    ``table`` follows the :func:`truth_table` convention: entry ``i`` is
    the output for the assignment whose bit ``k`` (LSB = input 0) is
    ``(i >> k) & 1``; its length must be a power of two.
    """

    __slots__ = ("name", "table", "arity")

    def __init__(self, name: str, table: Sequence[int]):
        size = len(table)
        if size == 0 or size & (size - 1):
            raise LogicError(
                "truth table length must be a power of two, got %d" % size
            )
        for entry in table:
            if entry not in (0, 1):
                raise LogicError(
                    "truth table entries must be 0 or 1, got %r" % (entry,)
                )
        self.name = name
        self.table = tuple(table)
        self.arity = size.bit_length() - 1

    @property
    def fixed_arity(self) -> int:
        return self.arity

    @property
    def is_inverting(self) -> bool:
        # Only consulted by the analog expansion, which never sees
        # table-driven cells; an inverting-stage answer is meaningless
        # for an arbitrary table.
        return False

    def __repr__(self) -> str:
        return "TableFunction(%s, arity=%d)" % (self.name, self.arity)


#: What a gate-function slot may hold: the enum member for healthy
#: cells, a :class:`TableFunction` stand-in for mutated ones.  This is
#: the element type of ``CompiledNetlist.gate_functions`` and of
#: ``CellSpec.function`` under fault injection.
GateFunctionLike = Union[GateFunction, TableFunction]


def evaluate(function, values: Sequence[int]) -> int:
    """Evaluate ``function`` on input ``values`` (each 0 or 1).

    ``function`` is a :class:`GateFunction` member or a
    :class:`TableFunction` stand-in.

    Raises:
        LogicError: on an arity mismatch or a non-binary input value.
    """
    arity = function.fixed_arity
    if arity is not None and len(values) != arity:
        raise LogicError(
            "%s expects %d inputs, got %d" % (function.name, arity, len(values))
        )
    if not values:
        raise LogicError("%s expects at least one input" % function.name)
    for value in values:
        if value not in (0, 1):
            raise LogicError("logic values must be 0 or 1, got %r" % (value,))

    if isinstance(function, TableFunction):
        index = 0
        for position, value in enumerate(values):
            index |= value << position
        return function.table[index]
    if function is GateFunction.BUF:
        return values[0]
    if function is GateFunction.INV:
        return 1 - values[0]
    if function is GateFunction.AND:
        return int(all(values))
    if function is GateFunction.NAND:
        return int(not all(values))
    if function is GateFunction.OR:
        return int(any(values))
    if function is GateFunction.NOR:
        return int(not any(values))
    if function is GateFunction.XOR:
        return sum(values) & 1
    if function is GateFunction.XNOR:
        return 1 - (sum(values) & 1)
    if function is GateFunction.MUX2:
        d0, d1, sel = values
        return d1 if sel else d0
    if function is GateFunction.AOI21:
        a, b, c = values
        return int(not ((a and b) or c))
    if function is GateFunction.OAI21:
        a, b, c = values
        return int(not ((a or b) and c))
    if function is GateFunction.MAJ3:
        return int(sum(values) >= 2)
    raise LogicError("unhandled gate function %r" % (function,))


def truth_table(function, arity: int) -> list[int]:
    """Return the function's truth table as a flat list.

    Entry ``i`` is the output for the input assignment whose bit ``k``
    (LSB = input 0) is ``(i >> k) & 1``.  Useful for exhaustive gate tests
    and for cross-checking macro expansions.  A :class:`TableFunction`
    returns a copy of its stored table directly.
    """
    if isinstance(function, TableFunction):
        if arity != function.arity:
            raise LogicError(
                "%s has fixed arity %d, got %d"
                % (function.name, function.arity, arity)
            )
        return list(function.table)
    fixed = function.fixed_arity
    if fixed is not None and arity != fixed:
        raise LogicError(
            "%s has fixed arity %d, got %d" % (function.name, fixed, arity)
        )
    table = []
    for assignment in range(1 << arity):
        values = [(assignment >> k) & 1 for k in range(arity)]
        table.append(evaluate(function, values))
    return table
